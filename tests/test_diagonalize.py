"""Labeled block diagonalization and the ordering certificate."""

import numpy as np
import pytest

from moddiag import (
    ModuleOperator,
    NotNormalError,
    NotSelfAdjointError,
    diagonalize_normal,
    diagonalize_selfadjoint,
    left_action,
    leq,
    order_eigenvalues,
    theta,
    verify_eigensystem,
)

from helpers import (
    module_over,
    random_normal_operator,
    random_positive_operator,
    random_selfadjoint_operator,
)

RECON_TOL = 1e-10


def test_order_two_windows_of_two():
    slots = order_eigenvalues([9.0, 4.0, 4.0, 1.0], 2)
    assert [s.label for s in slots] == [1, 3]
    assert slots[0].values == (9.0, 4.0)
    assert slots[1].values == (4.0, 1.0)


def test_order_one_positive_one_negative():
    slots = order_eigenvalues([-1.0, 1.0], 1)
    assert [(s.label, s.values) for s in slots] == [(1, (1.0,)), (2, (-1.0,))]


def test_order_all_zero():
    slots = order_eigenvalues([0.0] * 6, 2)
    assert [s.label for s in slots] == [1, 2, 3]
    assert all(s.values == (0.0, 0.0) for s in slots)


def test_order_mixed_sign_counts():
    # two positive and one negative window: odd labels walk down from the
    # top, the single even label sits at the bottom
    slots = order_eigenvalues([10.0, -1.0, 9.0], 1)
    assert [s.label for s in slots] == [1, 3, 2]
    slots = order_eigenvalues([10.0, -9.0, -8.0, 7.0], 1)
    assert [s.label for s in slots] == [1, 3, 4, 2]


def test_order_indices_point_into_input():
    scalars = [4.0, 9.0, 1.0, 4.0]
    slots = order_eigenvalues(scalars, 2)
    assert slots[0].indices == (1, 0)
    assert slots[1].indices == (3, 2)
    for s in slots:
        assert tuple(scalars[i] for i in s.indices) == s.values


def test_order_zero_tolerance_classifies():
    slots = order_eigenvalues([1e-12, -1e-12], 1, zero_tol=1e-9)
    assert [s.label for s in slots] == [1, 2]
    # without the tolerance the same data reads as one positive, one negative
    slots = order_eigenvalues([1e-12, -1e-12], 1)
    assert [s.label for s in slots] == [1, 2]


def test_order_negative_window_ascends():
    slots = order_eigenvalues([-3.0, -1.0, -2.0, -4.0], 2)
    assert [s.label for s in slots] == [4, 2]
    assert slots[0].values == (-2.0, -1.0)
    assert slots[1].values == (-4.0, -3.0)


def test_order_validation():
    with pytest.raises(ValueError):
        order_eigenvalues([], 1)
    with pytest.raises(ValueError):
        order_eigenvalues([1.0, 2.0, 3.0], 2)
    with pytest.raises(ValueError):
        order_eigenvalues([np.nan, 0.0], 1)
    with pytest.raises(ValueError):
        order_eigenvalues([1.0], 1, zero_tol=-1.0)


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
