"""Labeled block diagonalization and the ordering certificate."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moddiag import (
    DiagonalizationResult,
    ModuleOperator,
    NotNormalError,
    NotSelfAdjointError,
    OrderRelation,
    ShapeMismatchError,
    diagonalize_normal,
    diagonalize_selfadjoint,
    left_action,
    leq,
    projection_ladder,
    theta,
    verify_eigensystem,
)
from moddiag import algebra
from moddiag.algebra import _norm_lower_bound
from moddiag.diagonalize import _windows
from moddiag.io import serialize_solution

from helpers import (
    ACCEPTANCE_SHAPES,
    module_over,
    pair,
    random_normal_operator,
    random_positive_operator,
    random_selfadjoint_operator,
)

RECON_TOL = 1e-10


# (scalars, block size, (label, diagonal) per window from the top down)
WINDOW_CASES = {
    "two-windows-of-two": ([9.0, 4.0, 4.0, 1.0], 2, [(1, (9.0, 4.0)), (3, (4.0, 1.0))]),
    "one-positive-one-negative": ([-1.0, 1.0], 1, [(1, (1.0,)), (2, (-1.0,))]),
    "all-zeros": ([0.0] * 6, 2, [(1, (0.0, 0.0)), (2, (0.0, 0.0)), (3, (0.0, 0.0))]),
    # odd labels walk down from the top, even labels up from the bottom
    "mixed-1-3-2": ([10.0, -1.0, 9.0], 1, [(1, (10.0,)), (3, (9.0,)), (2, (-1.0,))]),
    "mixed-1-3-4-2": ([10.0, -9.0, -8.0, 7.0], 1, [(1, (10.0,)), (3, (7.0,)), (4, (-8.0,)), (2, (-9.0,))]),
    "negative-ascends": ([-3.0, -1.0, -2.0, -4.0], 2, [(4, (-2.0, -1.0)), (2, (-4.0, -3.0))]),
    # below tol * 1 both small scalars are zeros and take the free labels in order
    "zero-class": ([1.0, 1e-12, -1e-12], 1, [(1, (1.0,)), (2, (1e-12,)), (3, (-1e-12,))]),
}


@pytest.mark.parametrize("scalars, k, windows", WINDOW_CASES.values(), ids=WINDOW_CASES.keys())
def test_window_rule_on_diagonal_operators(scalars, k, windows):
    K = ModuleOperator(module_over((k,), len(scalars) // k), [np.diag(scalars)])
    res = diagonalize_selfadjoint(K)
    assert sorted(res.pair_labels) == sorted(label for label, _ in windows)
    for label, diagonal in windows:
        assert np.array_equal(pair(res, label).value.blocks[0], np.diag(diagonal))
    assert verify_eigensystem(K, res).overall


def test_windows_across_blocks_frozen():
    # windows span both blocks: the sign class of a window comes from all of
    # its scalars, the mixed bottom-half window reads ascending, and the two
    # links through zero land on different windows
    mod = module_over((2, 1), 4)
    k = ModuleOperator(
        mod,
        [np.diag([5.0, 4.0, 1.0, -1.0, 0.0, 0.0, -2.0, -3.0]), np.diag([2.0, 0.5, 0.0, -6.0])],
    )
    res = diagonalize_selfadjoint(k)
    want = {
        1: ([5.0, 4.0], [2.0]),
        2: ([-3.0, -2.0], [-6.0]),
        3: ([1.0, 0.0], [0.5]),
        4: ([-1.0, 0.0], [0.0]),
    }
    assert res.pair_labels == (1, 2, 3, 4)
    for label, blocks in want.items():
        got = pair(res, label).value.blocks
        for blk, diag in zip(got, blocks):
            assert np.abs(blk - np.diag(diag)).max() <= 1e-12, (label, blk)
    assert [r.describe() for r in res.ordering_certificate] == [
        "L2 <= L4",
        "L4 <= L3",
        "L3 <= L1",
        "L4 <= 0",
        "0 <= L3",
    ]
    assert verify_eigensystem(k, res).overall


def _reference_windows(spectra, block_sizes, zero_tol):
    """diagonalize._windows as a loop over the windows, with a counter per kind of label."""
    n = len(spectra[0]) // block_sizes[0]
    lows, highs = [], []
    for m in range(n):
        window = np.concatenate([s[m * k : (m + 1) * k] for s, k in zip(spectra, block_sizes)])
        lo, hi = float(window.min()), float(window.max())
        lows.append(int(lo > zero_tol) - int(lo < -zero_tol))
        highs.append(int(hi > zero_tol) - int(hi < -zero_tol))

    labels: list = [None] * n
    odd, even = itertools.count(1, 2), itertools.count(2, 2)
    for m in range(n):
        if lows[m] == 1:
            labels[m] = next(odd)
    for m in reversed(range(n)):
        if highs[m] == -1:
            labels[m] = next(even)
    taken = set(labels)
    free = (label for label in itertools.count(1) if label not in taken)
    labels = [next(free) if label is None else label for label in labels]

    reverse = [highs[m] == -1 or (lows[m] < 1 and m >= (n + 1) // 2) for m in range(n)]

    certificate = [OrderRelation(labels[m], labels[m - 1]) for m in range(n - 1, 0, -1)]
    first_nonpos = next((m for m in range(n) if highs[m] <= 0), None)
    if first_nonpos is not None:
        certificate.append(OrderRelation(labels[first_nonpos], None))
    last_nonneg = next((m for m in reversed(range(n)) if lows[m] >= 0), None)
    if last_nonneg is not None:
        certificate.append(OrderRelation(None, labels[last_nonneg]))
    return labels, reverse, tuple(certificate)


def _random_spectra(rng):
    """Descending spectra of 1-3 blocks of order 1-3 over 1-6 windows, with ties,
    exact zeros and scalars on either side of every zero tolerance drawn."""
    sizes = tuple(rng.integers(1, 4, size=rng.integers(1, 4)).tolist())
    n = int(rng.integers(1, 7))
    spectra = []
    for k in sizes:
        if rng.random() < 0.5:
            s = rng.choice([2.0, 1.0, 1e-9, 1e-12, 0.0, -1e-12, -1e-9, -1.0, -2.0], size=n * k)
        else:
            s = rng.standard_normal(n * k) * 10.0 ** rng.uniform(-12, 1)
        spectra.append(np.sort(s)[::-1])
    return spectra, sizes


def test_window_rule_matches_the_reference_on_random_spectra():
    rng = np.random.default_rng(28)
    for _ in range(2000):
        spectra, sizes = _random_spectra(rng)
        zero_tol = float(rng.choice([0.0, 1e-10, 1e-9, 0.5]))
        labels, reverse, certificate = _windows(spectra, sizes, zero_tol)
        want_labels, want_reverse, want_certificate = _reference_windows(spectra, sizes, zero_tol)
        assert (labels, reverse) == (want_labels, want_reverse), (spectra, zero_tol)
        assert [r.describe() for r in certificate] == [r.describe() for r in want_certificate], (spectra, zero_tol)


def test_zero_operator():
    mod = module_over((2,), 2)
    res = diagonalize_selfadjoint(ModuleOperator.zero(mod))
    assert res.pair_labels == (1, 2)
    for p in res.pairs:
        assert p.value.norm() == 0.0
        assert p.support.isclose(mod.shape.identity())
    report = verify_eigensystem(ModuleOperator.zero(mod), res)
    assert report.overall


def test_definite_operators_take_one_parity():
    rng = np.random.default_rng(71)
    mod = module_over((2, 1), 3)
    pos = random_positive_operator(mod, rng)
    labels = diagonalize_selfadjoint(pos).pair_labels
    assert labels == (1, 3, 5)
    neg = -1.0 * pos
    labels = diagonalize_selfadjoint(neg).pair_labels
    assert labels == (2, 4, 6)


def test_certificate_relations_hold_semantically():
    rng = np.random.default_rng(72)
    mod = module_over((2, 3), 3)
    k = random_selfadjoint_operator(mod, rng)
    res = diagonalize_selfadjoint(k)
    zero = mod.shape.zero()
    slack = res.tolerance_used * (1 + k.norm())
    for rel in res.ordering_certificate:
        lo = zero if rel.lhs is None else pair(res, rel.lhs).value
        hi = zero if rel.rhs is None else pair(res, rel.rhs).value
        assert leq(lo, hi, tol=slack), rel.describe()


def test_norm_decay_within_each_parity():
    rng = np.random.default_rng(73)
    mod = module_over((3,), 4)
    res = diagonalize_selfadjoint(random_positive_operator(mod, rng))
    odd = [pair(res, l).value.norm() for l in sorted(res.pair_labels)]
    assert all(x >= y - 1e-12 for x, y in zip(odd, odd[1:]))
    res = diagonalize_selfadjoint(-1.0 * random_positive_operator(mod, rng))
    even = [pair(res, l).value.norm() for l in sorted(res.pair_labels)]
    assert all(x >= y - 1e-12 for x, y in zip(even, even[1:]))


def test_random_selfadjoint_verifies_and_reconstructs():
    rng = np.random.default_rng(74)
    for sizes, n in (((2,), 2), ((2, 3), 3), ((1, 1, 1, 1), 4)):
        mod = module_over(sizes, n)
        k = random_selfadjoint_operator(mod, rng)
        res = diagonalize_selfadjoint(k, tol=1e-9)
        report = verify_eigensystem(k, res, tol=1e-8)
        assert report.overall, report.summary()
        acc = ModuleOperator.zero(mod)
        for p in res.pairs:
            acc = acc + theta(p.vector, left_action(p.value, p.vector))
        assert (acc - k).norm() <= RECON_TOL * (1 + k.norm())


def test_scalar_spectrum_matches_numpy():
    rng = np.random.default_rng(75)
    mod = module_over((2, 3), 2)
    k = random_selfadjoint_operator(mod, rng)
    res = diagonalize_selfadjoint(k)
    spectrum = res.scalar_spectrum()
    for blk, per_block in zip(k.blocks, spectrum):
        want = np.sort(np.linalg.eigvalsh(blk))[::-1]
        got = np.array([z.real for z in per_block])
        assert np.abs(np.sort(got)[::-1] - want).max() <= 1e-9


def _integer_normal_operator(mod, rng):
    """Unitary conjugates of diagonals with integer real and imaginary parts in -2..2: many ties."""
    blocks = []
    for k in mod.shape.block_sizes:
        d = mod.rank * k
        q = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
        vals = rng.integers(-2, 3, d) + 1j * rng.integers(-2, 3, d)
        blocks.append(q @ np.diag(vals) @ q.conj().T)
    return ModuleOperator(mod, blocks)


def test_scalar_spectrum_breaks_tied_real_parts_by_imaginary_part():
    rng = np.random.default_rng(80)
    mod = module_over((2, 3), 2)
    for _ in range(20):
        spectrum = diagonalize_normal(_integer_normal_operator(mod, rng)).scalar_spectrum()
        for per_block in spectrum:
            exact = [complex(round(z.real), round(z.imag)) for z in per_block]
            assert exact == sorted(exact, key=lambda z: (-z.real, -z.imag))
    # each block has its own gap: the large block 0 does not tie block 1's real parts 2 and 1
    mod = module_over((1, 1), 2)
    K = ModuleOperator(mod, [np.diag([1e12, 0.0]), np.diag([2.0, 1 + 5j])])
    assert diagonalize_normal(K).scalar_spectrum() == ((1e12, 0j), (2 + 0j, 1 + 5j))
    # self-adjoint results, whose imaginary parts are zero, keep the exact descending order
    for seed in range(5):
        res = diagonalize_selfadjoint(random_selfadjoint_operator(mod, np.random.default_rng(seed)))
        for per_block, vals in zip(res.scalar_spectrum(), res.values):
            diagonal = map(complex, np.diagonal(vals, axis1=1, axis2=2).ravel())
            assert per_block == tuple(sorted(diagonal, key=lambda z: (-z.real, -z.imag)))


def test_values_are_diagonal_with_unit_support():
    rng = np.random.default_rng(76)
    mod = module_over((2, 1, 3), 2)
    res = diagonalize_selfadjoint(random_selfadjoint_operator(mod, rng))
    for p in res.pairs:
        assert p.support.isclose(mod.shape.identity())
        for blk in p.value.blocks:
            assert np.abs(blk - np.diag(np.diag(blk))).max() <= 1e-12


def test_value_stacks_hold_no_negative_zeros():
    # the windows' scalars go onto a zero-filled diagonal; vals * eye would
    # write -0.0 beside every negative scalar, and the files would show it
    mod = module_over((2, 3), 2)
    res = diagonalize_selfadjoint(-1.0 * random_positive_operator(mod, np.random.default_rng(79)))
    for vals, k in zip(res.values, mod.shape.block_sizes):
        off = vals[:, ~np.eye(k, dtype=bool)]
        assert (vals.real.diagonal(axis1=1, axis2=2) < 0).all()
        assert not np.signbit(off.real).any() and not np.signbit(off.imag).any()


def test_result_stacks_and_the_pairs_view_agree():
    mod = module_over((2, 1, 3), 3)
    res = diagonalize_selfadjoint(random_selfadjoint_operator(mod, np.random.default_rng(80)))
    assert res.module == mod and res.pair_labels == (1, 2, 3)
    for b, k in enumerate(mod.shape.block_sizes):
        assert res.vectors[b].shape == (3, k, 3 * k) and res.values[b].shape == res.supports[b].shape == (3, k, k)
    for p, pair in enumerate(res.pairs):
        assert pair.label == res.pair_labels[p]
        assert all(np.array_equal(st[p], x) for st, x in zip(res.vectors, pair.vector.blocks))
        assert all(np.array_equal(st[p], x) for st, x in zip(res.values, pair.value.blocks))
    assert res.pairs is res.pairs
    again = DiagonalizationResult.from_pairs(res.pairs, res.ordering_certificate, res.tolerance_used)
    for name in ("vectors", "values", "supports"):
        assert all(np.array_equal(x, y) for x, y in zip(getattr(res, name), getattr(again, name)))
    assert again.pair_labels == res.pair_labels and again.ordering_certificate == res.ordering_certificate
    with pytest.raises(ValueError):
        res.values[0][0, 0, 0] = 1.0


def test_from_pairs_refuses_a_pair_on_another_module():
    mod = module_over((2,), 2)
    res = diagonalize_selfadjoint(random_selfadjoint_operator(mod, np.random.default_rng(81)))
    other = diagonalize_selfadjoint(ModuleOperator.identity(module_over((2,), 3)))
    with pytest.raises(ShapeMismatchError):
        DiagonalizationResult.from_pairs(res.pairs + other.pairs[:1], (), 1e-9)
    with pytest.raises(ValueError):
        DiagonalizationResult.from_pairs((), (), 1e-9)


def test_a_result_refuses_duplicate_or_invalid_labels():
    # with L1 on both pairs the ordering clause checked 0 <= L1 on one of
    # them only, and passed a result whose other L1 is diag(-1)
    k = ModuleOperator(module_over((1,), 2), [np.diag([1.0, -1.0])])
    res = diagonalize_selfadjoint(k)
    pos, neg = res.pairs
    assert neg.value.blocks[0][0, 0] == -1.0
    twin = neg._replace(label=pos.label)
    for pairs in ((pos, twin), (twin, pos)):
        with pytest.raises(ValueError, match="distinct"):
            DiagonalizationResult.from_pairs(pairs, (OrderRelation(None, 1),), res.tolerance_used)
    for label in (0, True, 1.0, None):
        with pytest.raises(ValueError, match="integers"):
            DiagonalizationResult.from_pairs((pos._replace(label=label),), (), res.tolerance_used)


def test_a_result_refuses_zero_pairs():
    # an empty result used to be accepted, then broke the verifier and
    # serialize_solution with numpy's errors on zero-size arrays
    res = diagonalize_selfadjoint(random_selfadjoint_operator(module_over((2, 1), 2), np.random.default_rng(6)))
    empty = {part: tuple(s[:0] for s in getattr(res, part)) for part in ("vectors", "values", "supports")}
    with pytest.raises(ValueError, match="a result needs at least one eigenpair"):
        dataclasses.replace(res, pair_labels=(), ordering_certificate=(), **empty)
    with pytest.raises(ValueError, match="a result needs at least one eigenpair"):
        DiagonalizationResult(res.module, [], *empty.values(), (), 1e-9)


def test_a_result_refuses_stacks_that_do_not_fit_its_module_or_labels():
    # one pair short in values, or one label for two pairs, used to surface
    # as an IndexError or a numpy matmul error inside the verifier
    res = diagonalize_selfadjoint(random_selfadjoint_operator(module_over((2,), 2), np.random.default_rng(5)))
    assert len(res.pair_labels) == 2 and dataclasses.replace(res).pair_labels == res.pair_labels
    (vectors,), (values,), (supports,) = res.vectors, res.values, res.supports
    for part, stacks in (
        ("values", (values[:1],)),
        ("supports", (supports[:, :1],)),
        ("vectors", (vectors[..., :2],)),
        ("vectors", res.vectors * 2),  # one stack per block of a two-block algebra
    ):
        with pytest.raises(ShapeMismatchError, match=part):
            dataclasses.replace(res, **{part: stacks})
    with pytest.raises(ShapeMismatchError, match="vectors"):
        dataclasses.replace(res, pair_labels=res.pair_labels[:1])


PARTS = ("vectors", "values", "supports")


def _stacks(result, convert):
    return {part: tuple(map(convert, getattr(result, part))) for part in PARTS}


def _same_bits(a, b):
    return all(
        x.dtype == y.dtype == np.complex128 and x.shape == y.shape and x.tobytes() == y.tobytes()
        for part in PARTS
        for x, y in zip(getattr(a, part), getattr(b, part))
    )


def test_a_result_keeps_its_own_copy_of_the_stacks_it_is_given():
    # a result used to freeze the caller's arrays in place and keep them:
    # nested lists raised AttributeError, and a later write to a base array
    # that the stacks view turned a passing result into a failing one
    k = random_selfadjoint_operator(module_over((2, 1), 2), np.random.default_rng(83))
    res = diagonalize_selfadjoint(k)
    summary = verify_eigensystem(k, res).summary()
    assert verify_eigensystem(k, res).overall
    assert _same_bits(dataclasses.replace(res, **_stacks(res, np.ndarray.tolist)), res)
    bases = _stacks(res, np.array)
    views = {part: tuple(base[...] for base in stacks) for part, stacks in bases.items()}
    copied = dataclasses.replace(res, **views)
    assert _same_bits(copied, res)
    for part in PARTS:
        for base, view in zip(bases[part], views[part]):
            assert base.flags.writeable and view.flags.writeable
            if part == "vectors":
                view *= 3
            else:
                base *= 3
    assert _same_bits(copied, res)
    assert verify_eigensystem(k, copied).summary() == summary


def test_the_ladder_result_stores_one_read_only_stack_per_part(monkeypatch):
    # every algebra block of C^32 has order 1, so each part is one stack
    ladder = projection_ladder(32)
    res = diagonalize_selfadjoint(ladder.operator)

    def walked(*args):
        raise AssertionError("the fault walk ran on valid stacks")

    monkeypatch.setattr(algebra, "_first_fault", walked)
    given = {part: np.array(getattr(res, part)) for part in PARTS}  # (32, P, 1, ...) each
    copied = dataclasses.replace(res, **given)
    assert _same_bits(copied, res)
    for part in PARTS:
        stacks = getattr(copied, part)
        assert all(blk.base is stacks[0].base for blk in stacks) and not stacks[0].base.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            stacks[-1][0, 0, 0] = 1.0
    for stack in given.values():
        stack *= 3
    assert _same_bits(copied, res)
    assert verify_eigensystem(ladder.operator, copied).overall
    pairs = copied.pairs
    assert len(pairs) == 32  # one window per module coordinate
    for p, pair in enumerate(pairs):
        assert all(np.array_equal(st[p], x) for st, x in zip(copied.vectors, pair.vector.blocks))
        assert all(np.array_equal(st[p], x) for st, x in zip(copied.values, pair.value.blocks))
        assert all(np.array_equal(st[p], x) for st, x in zip(copied.supports, pair.support.blocks))
    again = DiagonalizationResult.from_pairs(pairs, copied.ordering_certificate, copied.tolerance_used)
    assert _same_bits(again, res) and again.pair_labels == res.pair_labels


@pytest.mark.parametrize("dtype", [np.float64, np.complex64])
def test_a_result_stores_narrower_stacks_as_complex128(dtype):
    res = diagonalize_selfadjoint(random_selfadjoint_operator(module_over((2, 1), 2), np.random.default_rng(84)))
    narrowed = dataclasses.replace(res, **_stacks(res, lambda stack: stack.real.astype(dtype)))
    widened = dataclasses.replace(res, **_stacks(res, lambda stack: stack.real.astype(dtype).astype(np.complex128)))
    assert _same_bits(narrowed, widened)
    assert serialize_solution(narrowed) == serialize_solution(widened)


@pytest.mark.parametrize("part", PARTS)
def test_a_result_refuses_a_non_finite_entry_naming_the_part(part):
    res = diagonalize_selfadjoint(random_selfadjoint_operator(module_over((2, 1), 2), np.random.default_rng(85)))
    stacks = [np.array(stack) for stack in getattr(res, part)]
    stacks[-1][-1, 0, 0] = np.nan
    with pytest.raises(ValueError, match=part):
        dataclasses.replace(res, **{part: tuple(stacks)})


def test_numpy_integer_labels_are_stored_as_ints():
    # _positive_int takes numpy integers for sizes and ranks; labels were refused
    res = diagonalize_selfadjoint(random_selfadjoint_operator(module_over((2,), 3), np.random.default_rng(86)))
    again = dataclasses.replace(res, pair_labels=np.array(res.pair_labels, dtype=np.int64))
    assert again.pair_labels == res.pair_labels and {type(label) for label in again.pair_labels} == {int}
    assert serialize_solution(again) == serialize_solution(res)


@pytest.mark.parametrize("bad", ["0.1", None, float("nan"), 0.0, 1.0, True, 1j])
def test_a_result_refuses_a_tolerance_that_is_not_a_number_in_the_unit_interval(bad):
    # "0.1" was stored, and verify_eigensystem later raised a TypeError
    res = diagonalize_selfadjoint(random_selfadjoint_operator(module_over((2,), 2), np.random.default_rng(87)))
    with pytest.raises(ValueError, match="tolerance_used"):
        dataclasses.replace(res, tolerance_used=bad)
    again = dataclasses.replace(res, tolerance_used=np.float64(0.25))
    assert type(again.tolerance_used) is float and again.tolerance_used == 0.25


def test_a_scalar_in_the_old_zero_band_keeps_its_link_through_zero():
    # z lies above tol * operator_scale (the verifier's order slack) but
    # below tol * ||K||; classed zero against ||K||, its window got the
    # relation L <= 0 and failed it
    tol = 1e-9
    mod = module_over((1,), 4)
    rng = np.random.default_rng(4)
    q = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]

    def operator(z):
        h = q @ np.diag([1.0, 0.995, z, -0.5]) @ q.conj().T
        return ModuleOperator(mod, [(h + h.conj().T) / 2.0])

    scale = _norm_lower_bound(operator(0.0).blocks)
    z = tol * 0.5 * (1.0 + scale)
    k = operator(z)
    norm = float(np.abs(np.linalg.eigvalsh(k.blocks[0])).max())
    assert tol * _norm_lower_bound(k.blocks) < z - 1e-15 and z + 1e-15 < tol * norm
    res = diagonalize_selfadjoint(k, tol=tol)
    report = verify_eigensystem(k, res, tol=tol)
    assert report.ordering_ok and report.overall, report.summary()
    (small,) = [p.label for p in res.pairs if abs(p.value.blocks[0][0, 0] - z) < 1e-12]
    assert small % 2 == 1  # a positive window: odd label, linked by 0 <= L


def test_deterministic_repeat():
    rng = np.random.default_rng(77)
    mod = module_over((2,), 3)
    k = random_selfadjoint_operator(mod, rng)
    a = diagonalize_selfadjoint(k)
    b = diagonalize_selfadjoint(k)
    assert a.pair_labels == b.pair_labels
    for pa, pb in zip(a.pairs, b.pairs):
        assert all(np.array_equal(x, y) for x, y in zip(pa.vector.blocks, pb.vector.blocks))
        assert all(np.array_equal(x, y) for x, y in zip(pa.value.blocks, pb.value.blocks))


def test_rejects_non_selfadjoint_and_bad_tol():
    mod = module_over((2,), 2)
    skew = ModuleOperator(mod, [np.triu(np.ones((4, 4)), 1)])
    with pytest.raises(NotSelfAdjointError):
        diagonalize_selfadjoint(skew)
    with pytest.raises(ValueError):
        diagonalize_selfadjoint(ModuleOperator.zero(mod), tol=0.0)
    with pytest.raises(ValueError):
        diagonalize_selfadjoint(ModuleOperator.zero(mod), tol=2.0)


def test_normal_operator_verifies():
    rng = np.random.default_rng(78)
    mod = module_over((2, 3), 2)
    k = random_normal_operator(mod, rng)
    res = diagonalize_normal(k)
    assert res.pair_labels == (1, 2)
    assert res.ordering_certificate == ()
    report = verify_eigensystem(k, res, tol=1e-7, moment_tol=1e-6)
    assert report.overall, report.summary()
    assert report.ordering_ok


def test_normal_rejects_non_normal():
    mod = module_over((2,), 2)
    with pytest.raises(NotNormalError):
        diagonalize_normal(ModuleOperator(mod, [np.triu(np.ones((4, 4)), 1)]))
    # normal relative to the largest entry of the operator, but each block
    # is held to its own largest entry, so the small Jordan block is refused
    small_jordan = [np.diag([3.0 + 1.0j, -1.0, 2.0]), 1e-6 * np.array([[0.0, 1.0], [0.0, 0.0]])]
    with pytest.raises(NotNormalError, match="matrix 1 of the stack"):
        diagonalize_normal(ModuleOperator(module_over((3, 2), 1), small_jordan))


def test_both_paths_agree_on_selfadjoint_input():
    rng = np.random.default_rng(79)
    mod = module_over((2, 1), 2)
    k = random_selfadjoint_operator(mod, rng)
    sa = diagonalize_selfadjoint(k).scalar_spectrum()
    nm = diagonalize_normal(k).scalar_spectrum()
    for block_sa, block_nm in zip(sa, nm):
        a = np.sort_complex(np.array(block_sa))
        b = np.sort_complex(np.array(block_nm))
        assert np.abs(a - b).max() <= 1e-8


SCALE_MODULES = [((2,), 2), ((2, 3), 3), ((1, 1, 1, 1), 4), ((2, 1, 3), 2), ((8,), 2)]


def _scale_case(case, seed, rank_deficient):
    sizes, rank = SCALE_MODULES[case]
    mod = module_over(sizes, rank)
    rng = np.random.default_rng(seed)
    if not rank_deficient:
        return random_selfadjoint_operator(mod, rng)
    # a diag(+-1) a* with a of half width: about half the scalars are zeros
    blocks = []
    for k in sizes:
        d = rank * k
        a = rng.standard_normal((d, d // 2 + 1)) + 1j * rng.standard_normal((d, d // 2 + 1))
        blocks.append(a @ np.diag(rng.choice([-1.0, 1.0], d // 2 + 1)) @ a.conj().T)
    return ModuleOperator(mod, blocks)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    case=st.integers(0, len(SCALE_MODULES) - 1),
    seed=st.integers(0, 2**16),
    rank_deficient=st.booleans(),
    exponent=st.floats(-200, 200),
    j=st.integers(-664, 664),
)
def test_diagonalize_is_scale_covariant(case, seed, rank_deficient, exponent, j):
    k = _scale_case(case, seed, rank_deficient)
    base = diagonalize_selfadjoint(k)
    top = max(float(np.abs(blk).max()) for p in base.pairs for blk in p.value.blocks)
    for s in (10.0**exponent, 2.0**j):
        res = diagonalize_selfadjoint(s * k)
        assert res.pair_labels == base.pair_labels
        assert res.ordering_certificate == base.ordering_certificate
        assert verify_eigensystem(s * k, res).overall
        for p, q in zip(base.pairs, res.pairs):
            assert all(np.abs(s * a - b).max() <= 1e-12 * s * top for a, b in zip(p.value.blocks, q.value.blocks))
    # an exact power of two scales every value exactly and moves no vector
    for p, q in zip(base.pairs, res.pairs):
        assert all(np.array_equal(s * a, b) for a, b in zip(p.value.blocks, q.value.blocks))
        assert all(np.array_equal(a, b) for a, b in zip(p.vector.blocks, q.vector.blocks))


def test_diagonalize_is_unitarily_covariant():
    # a unitary of each block's order is a unitary module operator U, and
    # U K U* has the labels, the certificate and the values of K
    rng = np.random.default_rng(29)
    solvers = [(random_selfadjoint_operator, diagonalize_selfadjoint), (random_normal_operator, diagonalize_normal)]
    for sizes, rank, (draw, diagonalize) in itertools.product(ACCEPTANCE_SHAPES, (1, 2, 3), solvers):
        k = draw(module_over(sizes, rank), rng)
        us = [np.linalg.qr(rng.standard_normal(b.shape) + 1j * rng.standard_normal(b.shape))[0] for b in k.blocks]
        base = diagonalize(k)
        res = diagonalize(ModuleOperator(k.module, [u @ b @ u.conj().T for u, b in zip(us, k.blocks)]))
        assert res.pair_labels == base.pair_labels
        assert res.ordering_certificate == base.ordering_certificate
        top = max(float(np.abs(v).max()) for v in base.values)
        assert all(np.abs(a - b).max() <= 1e-12 * top for a, b in zip(base.values, res.values))
