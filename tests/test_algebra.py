"""Block algebra arithmetic, order, and spectral tools."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moddiag import (
    AlgebraElement,
    AlgebraShape,
    HilbertModule,
    ModuleOperator,
    NotSelfAdjointError,
    ShapeMismatchError,
    is_projection,
    leq,
)

from helpers import random_algebra_element, random_hermitian

TOL = 1e-10
TIGHT = 1e-12

SHAPE = AlgebraShape((2, 1, 3))


def test_shape_basics():
    assert SHAPE.num_blocks == 3
    assert SHAPE.dim == 4 + 1 + 9
    assert SHAPE.identity().trace() == pytest.approx(6)
    assert SHAPE.zero().norm() == 0.0


def test_shape_rejects_bad_sizes():
    with pytest.raises(ValueError):
        AlgebraShape((2, 0))
    with pytest.raises(ValueError):
        AlgebraShape(())


def test_element_validates_block_shapes():
    with pytest.raises(ShapeMismatchError):
        AlgebraElement(SHAPE, [np.eye(2), np.eye(1)])
    with pytest.raises(ShapeMismatchError):
        AlgebraElement(SHAPE, [np.eye(2), np.eye(2), np.eye(3)])


def test_diagonal_and_block_projection():
    a = SHAPE.diagonal([[1, 2], [3], [4, 5, 6]])
    assert a.trace() == pytest.approx(21)
    p = SHAPE.block_projection(1)
    assert is_projection(p)
    assert (p * a).trace() == pytest.approx(3)


def test_arithmetic_matches_blockwise_numpy():
    rng = np.random.default_rng(21)
    a = random_algebra_element(SHAPE, rng)
    b = random_algebra_element(SHAPE, rng)
    s = a + b
    d = a - b
    p = a * b
    for blk_a, blk_b, blk_s, blk_d, blk_p in zip(a.blocks, b.blocks, s.blocks, d.blocks, p.blocks):
        assert np.allclose(blk_s, blk_a + blk_b, atol=TIGHT)
        assert np.allclose(blk_d, blk_a - blk_b, atol=TIGHT)
        assert np.allclose(blk_p, blk_a @ blk_b, atol=TIGHT)
    assert np.allclose((2.0 * a).blocks[0], 2.0 * a.blocks[0], atol=TIGHT)
    assert np.allclose((-a).blocks[2], -a.blocks[2], atol=TIGHT)


def test_adjoint_is_blockwise_conjugate_transpose():
    rng = np.random.default_rng(22)
    a = random_algebra_element(SHAPE, rng)
    for blk, adj in zip(a.blocks, a.adjoint().blocks):
        assert np.array_equal(adj, blk.conj().T)


def test_norm_is_largest_block_spectral_norm():
    rng = np.random.default_rng(23)
    a = random_algebra_element(SHAPE, rng)
    want = max(np.linalg.norm(blk, 2) for blk in a.blocks)
    assert a.norm() == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("s", [1e-200, 1e200])
def test_norm_is_scale_covariant(s):
    # a* a is formed after exact power-of-two scaling; squaring the raw
    # entries gave 0.0 at 1e-200 and non-finite entries at 1e200
    rng = np.random.default_rng(24)
    a = random_algebra_element(SHAPE, rng)
    k = ModuleOperator(HilbertModule(SHAPE, 2), [random_hermitian(rng, 2 * n) for n in SHAPE.block_sizes])
    assert (s * a).norm() == pytest.approx(s * a.norm(), rel=1e-13, abs=0.0)
    assert (s * k).norm() == pytest.approx(s * k.norm(), rel=1e-13, abs=0.0)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.floats(-5, 5), min_size=4, max_size=4),
    st.lists(st.floats(-5, 5), min_size=4, max_size=4),
)
def test_cstar_identity(re, im):
    shape = AlgebraShape((2,))
    mat = np.array(re).reshape(2, 2) + 1j * np.array(im).reshape(2, 2)
    a = AlgebraElement(shape, [mat])
    lhs = (a.adjoint() * a).norm()
    assert lhs == pytest.approx(a.norm() ** 2, rel=1e-9, abs=1e-12)


def test_leq_frozen_examples():
    shape = AlgebraShape((2,))
    lo = shape.diagonal([[1, 4]])
    hi = shape.diagonal([[4, 9]])
    other = shape.diagonal([[1, 9]])
    flat = shape.diagonal([[4, 4]])
    assert leq(lo, hi)
    assert not leq(hi, lo)
    assert leq(lo, lo)
    # neither direction holds for this pair
    assert not leq(other, flat)
    assert not leq(flat, other)


def test_leq_requires_selfadjoint():
    shape = AlgebraShape((2,))
    bad = AlgebraElement(shape, [np.array([[0.0, 1.0], [0.0, 0.0]])])
    with pytest.raises(NotSelfAdjointError):
        leq(bad, shape.identity())


def _eigenvalue_leq(a, b, tol):
    # the rule leq decided by before it used Cholesky, with numpy as the oracle
    return all(np.linalg.eigvalsh(0.5 * (d + d.conj().T))[0] >= -tol for d in (b - a).blocks)


def test_leq_agrees_with_the_eigenvalue_rule():
    rng = np.random.default_rng(31)
    shapes = (SHAPE, AlgebraShape((5,)), AlgebraShape((1, 1, 1)))
    checked = 0
    for i in range(240):
        shape = shapes[i % 3]
        s = (1e-150, 1.0, 1e150)[i % 5 % 3]
        a = AlgebraElement(shape, [s * random_hermitian(rng, k) for k in shape.block_sizes])
        tol = s * (0.0, 1e-10, 1e-6, 1e-3)[i % 4]
        # b - a has its smallest eigenvalue at -tol + margin in one block
        margin = s * float(rng.choice([-1e-2, -1e-4, -1e-6, -1e-8, 0.0, 1e-8, 1e-6, 1e-4, 1e-2]))
        diffs = []
        for b_, k in enumerate(shape.block_sizes):
            q = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))[0]
            lam = s * rng.uniform(0.1, 1.0, k)
            if b_ == 0:
                lam[0] = -tol + margin
            diffs.append(q @ np.diag(lam) @ q.conj().T)
        b = a + AlgebraElement(shape, diffs)
        lowest = min(np.linalg.eigvalsh(d)[0] for d in (b - a).blocks)
        if abs(lowest + tol) > 1e-6 * s:
            assert leq(a, b, tol=tol) == _eigenvalue_leq(a, b, tol), (i, lowest, tol)
            checked += 1
    assert checked >= 100


def test_leq_at_zero_tolerance_is_exact_semidefiniteness():
    a = SHAPE.diagonal([[1, 2], [3], [4, 5, 6]])
    assert leq(a, a, tol=0.0)
    assert leq(SHAPE.zero(), SHAPE.zero(), tol=0.0)
    assert leq(a, a + SHAPE.identity(), tol=0.0)
    assert not leq(a + SHAPE.identity(), a, tol=0.0)


def test_leq_fails_when_one_block_fails():
    # blocks of equal order share a factorization; each order's verdict counts
    shape = AlgebraShape((2, 1, 3, 1, 2))
    rng = np.random.default_rng(34)
    a = AlgebraElement(shape, [random_hermitian(rng, k) for k in shape.block_sizes])
    for b in range(shape.num_blocks):
        diffs = [np.eye(k) for k in shape.block_sizes]
        diffs[b] = diffs[b] - 2.0 * np.diag(np.arange(shape.block_sizes[b]) == 0)
        assert not leq(a, a + AlgebraElement(shape, diffs)), b
        assert leq(a, a + AlgebraElement(shape, [abs(d) for d in diffs]))


def _leq_cases():
    """Pairs (a, b) whose verdict is far from the tolerance's edge, or exactly semidefinite."""
    rng = np.random.default_rng(33)
    for shape in (SHAPE, AlgebraShape((4,)), AlgebraShape((1, 1, 1))):
        a = AlgebraElement(shape, [random_hermitian(rng, k) for k in shape.block_sizes])
        pd, indefinite, projection = [], [], []
        for k in shape.block_sizes:
            g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            pd.append(g @ g.conj().T + 0.1 * np.eye(k))
            indefinite.append(pd[-1] - 2.0 * np.trace(pd[-1]).real * np.outer(np.eye(k)[0], np.eye(k)[0]))
            projection.append(np.diag((np.arange(k) % 2 == 0).astype(float)))
        for diff in (pd, indefinite, projection, [0.0 * d for d in pd]):
            yield a, a + AlgebraElement(shape, diff)


def test_leq_default_tolerance_carries_no_units():
    # with a default slack of 1e-10 * (1 + ||b - a||), x <= 0 held for
    # x = 1e-12 while it failed for x = 1 and x = 1e-9
    x, zero = AlgebraShape((1,)).identity(), AlgebraShape((1,)).zero()
    for s in (1.0, 1e-9, 1e-12, 1e-200):
        assert not leq(s * x, zero) and leq(zero, s * x)
    scales = [2.0**j for j in range(-660, 661, 60)] + [10.0**j for j in range(-200, 201, 25)]
    verdicts = []
    for a, b in _leq_cases():
        expected = leq(a, b)
        verdicts.append(expected)
        for s in scales:
            assert leq(s * a, s * b) == expected, s
    assert 0 < verdicts.count(False) < len(verdicts)


@pytest.mark.parametrize("s", [1e-13, 1e-10, 1e-6, 1e12])
def test_is_selfadjoint_is_relative_to_the_largest_entry(s):
    shape = AlgebraShape((2,))
    assert not AlgebraElement(shape, [s * np.array([[0.0, 1.0], [0.0, 0.0]])]).is_selfadjoint()
    rng = np.random.default_rng(32)
    h = random_hermitian(rng, 2)
    for t in 10.0 ** np.arange(-200, 201, 50):
        assert AlgebraElement(shape, [t * h]).is_selfadjoint()
    assert shape.zero().is_selfadjoint()


def test_is_projection():
    assert is_projection(SHAPE.identity())
    assert is_projection(SHAPE.zero())
    assert not is_projection(2.0 * SHAPE.identity())
    rng = np.random.default_rng(25)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    v /= np.linalg.norm(v)
    rank_one = AlgebraElement(SHAPE, [np.zeros((2, 2)), np.zeros((1, 1)), np.outer(v, v.conj())])
    assert is_projection(rank_one)


def test_mixed_shape_arithmetic_raises():
    a = AlgebraShape((2,)).identity()
    b = AlgebraShape((3,)).identity()
    with pytest.raises(ShapeMismatchError):
        a + b
