"""Labeled block diagonalization and the ordering certificate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moddiag import (
    DiagonalizationResult,
    ModuleOperator,
    NotNormalError,
    NotSelfAdjointError,
    ShapeMismatchError,
    diagonalize_normal,
    diagonalize_selfadjoint,
    left_action,
    leq,
    theta,
    verify_eigensystem,
)
from moddiag.algebra import _norm_lower_bound

from helpers import (
    module_over,
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
    assert sorted(res.labels()) == sorted(label for label, _ in windows)
    for label, diagonal in windows:
        assert np.array_equal(res.pair_by_label(label).value.blocks[0], np.diag(diagonal))
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
    assert res.labels() == (1, 2, 3, 4)
    for label, blocks in want.items():
        got = res.pair_by_label(label).value.blocks
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


def test_zero_operator():
    mod = module_over((2,), 2)
    res = diagonalize_selfadjoint(ModuleOperator.zero(mod))
    assert res.labels() == (1, 2)
    for p in res.pairs:
        assert p.value.norm() == 0.0
        assert p.support.isclose(mod.shape.identity())
    report = verify_eigensystem(ModuleOperator.zero(mod), res)
    assert report.overall


def test_definite_operators_take_one_parity():
    rng = np.random.default_rng(71)
    mod = module_over((2, 1), 3)
    pos = random_positive_operator(mod, rng)
    labels = diagonalize_selfadjoint(pos).labels()
    assert labels == (1, 3, 5)
    neg = -1.0 * pos
    labels = diagonalize_selfadjoint(neg).labels()
    assert labels == (2, 4, 6)


def test_certificate_relations_hold_semantically():
    rng = np.random.default_rng(72)
    mod = module_over((2, 3), 3)
    k = random_selfadjoint_operator(mod, rng)
    res = diagonalize_selfadjoint(k)
    zero = mod.shape.zero()
    slack = res.tolerance_used * (1 + k.norm())
    for rel in res.ordering_certificate:
        lo = zero if rel.lhs is None else res.pair_by_label(rel.lhs).value
        hi = zero if rel.rhs is None else res.pair_by_label(rel.rhs).value
        assert leq(lo, hi, tol=slack), rel.describe()


def test_norm_decay_within_each_parity():
    rng = np.random.default_rng(73)
    mod = module_over((3,), 4)
    res = diagonalize_selfadjoint(random_positive_operator(mod, rng))
    odd = [res.pair_by_label(l).value.norm() for l in sorted(res.labels())]
    assert all(x >= y - 1e-12 for x, y in zip(odd, odd[1:]))
    res = diagonalize_selfadjoint(-1.0 * random_positive_operator(mod, rng))
    even = [res.pair_by_label(l).value.norm() for l in sorted(res.labels())]
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
    assert res.module == mod and res.labels() == (1, 2, 3)
    for b, k in enumerate(mod.shape.block_sizes):
        assert res.vectors[b].shape == (3, k, 3 * k) and res.values[b].shape == res.supports[b].shape == (3, k, k)
    for p, pair in enumerate(res.pairs):
        assert pair.label == res.labels()[p]
        assert all(np.array_equal(st[p], x) for st, x in zip(res.vectors, pair.vector.stacked))
        assert all(np.array_equal(st[p], x) for st, x in zip(res.values, pair.value.blocks))
    assert res.pairs is res.pairs
    again = DiagonalizationResult.from_pairs(res.pairs, res.ordering_certificate, res.tolerance_used)
    for name in ("vectors", "values", "supports"):
        assert all(np.array_equal(x, y) for x, y in zip(getattr(res, name), getattr(again, name)))
    assert again.labels() == res.labels() and again.ordering_certificate == res.ordering_certificate
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
    assert a.labels() == b.labels()
    for pa, pb in zip(a.pairs, b.pairs):
        assert all(np.array_equal(x, y) for x, y in zip(pa.vector.stacked, pb.vector.stacked))
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


def test_pair_by_label_missing():
    mod = module_over((1,), 1)
    res = diagonalize_selfadjoint(ModuleOperator.identity(mod))
    with pytest.raises(KeyError):
        res.pair_by_label(17)


def test_normal_operator_verifies():
    rng = np.random.default_rng(78)
    mod = module_over((2, 3), 2)
    k = random_normal_operator(mod, rng)
    res = diagonalize_normal(k)
    assert res.labels() == (1, 2)
    assert res.ordering_certificate == ()
    report = verify_eigensystem(k, res, tol=1e-7, moment_tol=1e-6)
    assert report.overall, report.summary()
    assert report.ordering_ok


def test_normal_rejects_non_normal():
    mod = module_over((2,), 2)
    with pytest.raises(NotNormalError):
        diagonalize_normal(ModuleOperator(mod, [np.triu(np.ones((4, 4)), 1)]))


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
        assert res.labels() == base.labels()
        assert res.ordering_certificate == base.ordering_certificate
        assert verify_eigensystem(s * k, res).overall
        for p, q in zip(base.pairs, res.pairs):
            assert all(np.abs(s * a - b).max() <= 1e-12 * s * top for a, b in zip(p.value.blocks, q.value.blocks))
    # an exact power of two scales every value exactly and moves no vector
    for p, q in zip(base.pairs, res.pairs):
        assert all(np.array_equal(s * a, b) for a, b in zip(p.value.blocks, q.value.blocks))
        assert all(np.array_equal(a, b) for a, b in zip(p.vector.stacked, q.vector.stacked))
