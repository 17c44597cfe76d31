"""Module elements, the algebra-valued inner product, and frame utilities."""

import numpy as np
import pytest

from moddiag import (
    ModuleElement,
    ShapeMismatchError,
    inner,
    left_action,
    leq,
    orthogonal_complement_trivial,
    right_action,
)

from helpers import module_over, random_algebra_element, random_element, strip_stacks

TOL = 1e-10

MOD = module_over((2, 3), 3)


def test_coords_round_trip():
    rng = np.random.default_rng(31)
    x = random_element(MOD, rng)
    again = MOD.element([x.coord(i) for i in range(MOD.rank)])
    for st1, st2 in zip(x.blocks, again.blocks):
        assert np.array_equal(st1, st2)


def test_only_square_blocks_have_an_adjoint():
    # a module element's (k, n*k) strips are square only at rank 1, so it
    # has neither an adjoint nor a self-adjointness test at any rank
    for rank in (1, 2):
        x = ModuleElement(module_over((2,), rank), [np.eye(2, 2 * rank)])
        assert not hasattr(x, "is_selfadjoint") and not hasattr(x, "adjoint")


def test_inner_first_slot_linear():
    rng = np.random.default_rng(32)
    x = random_element(MOD, rng)
    y = random_element(MOD, rng)
    z = random_element(MOD, rng)
    a = random_algebra_element(MOD.shape, rng)
    lhs = inner(left_action(a, x) + z, y)
    rhs = a * inner(x, y) + inner(z, y)
    assert lhs.isclose(rhs, tol=TOL * (1 + rhs.norm()))


def test_inner_adjoint_symmetry():
    rng = np.random.default_rng(33)
    x = random_element(MOD, rng)
    y = random_element(MOD, rng)
    assert inner(x, y).adjoint().isclose(inner(y, x), tol=TOL)


def test_inner_positive():
    rng = np.random.default_rng(34)
    x = random_element(MOD, rng)
    g = inner(x, x)
    assert g.is_selfadjoint()
    assert leq(MOD.shape.zero(), g)


def test_inner_matches_coordinate_sum():
    rng = np.random.default_rng(35)
    x = random_element(MOD, rng)
    y = random_element(MOD, rng)
    acc = MOD.shape.zero()
    for i in range(MOD.rank):
        acc = acc + x.coord(i) * y.coord(i).adjoint()
    assert inner(x, y).isclose(acc, tol=TOL * (1 + acc.norm()))


def test_actions_commute():
    # (a . x) . b has coordinates a x_i b
    rng = np.random.default_rng(36)
    x = random_element(MOD, rng)
    a = random_algebra_element(MOD.shape, rng)
    b = random_algebra_element(MOD.shape, rng)
    lhs = right_action(left_action(a, x), b)
    rhs = left_action(a, right_action(x, b))
    for i in range(MOD.rank):
        want = a * x.coord(i) * b
        assert lhs.coord(i).isclose(want, tol=TOL * (1 + want.norm()))
        assert rhs.coord(i).isclose(want, tol=TOL * (1 + want.norm()))


def test_right_action_via_mul_operator():
    rng = np.random.default_rng(37)
    x = random_element(MOD, rng)
    a = random_algebra_element(MOD.shape, rng)
    assert (x * a).coord(1).isclose(right_action(x, a).coord(1), tol=1e-14)


def test_scalar_and_vector_arithmetic():
    rng = np.random.default_rng(38)
    x = random_element(MOD, rng)
    y = random_element(MOD, rng)
    z = 2.0 * x - y + x * 0.5
    for i in range(MOD.rank):
        want = 2.5 * x.coord(i) - y.coord(i)
        assert z.coord(i).isclose(want, tol=TOL)
    assert (x - x).norm() == 0.0


def test_module_norm_is_gram_norm_sqrt():
    rng = np.random.default_rng(39)
    x = random_element(MOD, rng)
    assert x.norm() == pytest.approx(np.sqrt(inner(x, x).norm()), rel=1e-12)


def test_cauchy_schwarz():
    rng = np.random.default_rng(40)
    for _ in range(20):
        x = random_element(MOD, rng)
        y = random_element(MOD, rng)
        lhs = inner(x, y).norm() ** 2
        assert lhs <= inner(x, x).norm() * inner(y, y).norm() * (1 + 1e-12)


def test_complement_trivial_for_full_basis():
    sizes = MOD.shape.block_sizes
    basis = [ModuleElement(MOD, [np.eye(k, MOD.rank * k, i * k) for k in sizes]) for i in range(MOD.rank)]
    assert orthogonal_complement_trivial(strip_stacks(basis))


def test_complement_not_trivial_when_one_missing():
    sizes = MOD.shape.block_sizes
    basis = [ModuleElement(MOD, [np.eye(k, MOD.rank * k, i * k) for k in sizes]) for i in range(MOD.rank - 1)]
    assert not orthogonal_complement_trivial(strip_stacks(basis))
    assert not orthogonal_complement_trivial(strip_stacks([], MOD))
    assert not orthogonal_complement_trivial([])


def test_complement_cross_check_with_svd():
    # compare against the rank of the stacked span computed by numpy
    rng = np.random.default_rng(42)
    vecs = [random_element(MOD, rng) for _ in range(MOD.rank)]
    stacked = [np.vstack([v.blocks[b] for v in vecs]) for b in range(MOD.shape.num_blocks)]
    full = all(
        np.linalg.matrix_rank(s, tol=1e-10) == s.shape[1] for s in stacked
    )
    assert orthogonal_complement_trivial(strip_stacks(vecs)) == full


def _svd_complement_trivial(vecs, tol=1e-8):
    # the span is full exactly when each block's smallest singular value
    # (numpy's SVD here) clears tol * max(1, ||rows||_F), the threshold the
    # Cholesky test applies
    full = True
    for b in range(vecs[0].module.shape.num_blocks):
        rows = np.vstack([v.blocks[b] for v in vecs])
        smin = np.linalg.svd(rows, compute_uv=False)[-1]
        full = full and smin > tol * max(1.0, np.linalg.norm(rows))
    return full


def test_complement_near_rank_deficient():
    # the last element leans on the one before it by eps
    rng = np.random.default_rng(43)
    base = [random_element(MOD, rng) for _ in range(MOD.rank)]
    for eps in (1e-4, 1e-6, 1e-10, 1e-12):
        vecs = base[:-1] + [base[-2] + eps * base[-1]]
        full = _svd_complement_trivial(vecs)
        assert full == (eps >= 1e-6)
        assert orthogonal_complement_trivial(strip_stacks(vecs), tol=1e-8) == full


@pytest.mark.parametrize("sizes", [(1, 1, 1, 1), (2, 1, 3, 1, 2)])
def test_stacked_complement_check_agrees_with_svd(sizes):
    # blocks of equal order share one factorization; a single deficient
    # block among them must still make the whole check fail
    mod = module_over(sizes, 3)
    rng = np.random.default_rng(44)
    seen = set()
    for trial in range(24):
        vecs = [random_element(mod, rng, scale=10.0 ** rng.integers(-3, 4)) for _ in range(mod.rank)]
        b = trial % len(sizes)
        eps = (0.0, 1e-12, 1e-4, None)[trial % 4]
        if eps is not None:
            strips = [np.array(s) for s in vecs[-1].blocks]
            strips[b] = vecs[0].blocks[b] + eps * strips[b]
            vecs[-1] = ModuleElement(mod, strips)
        expected = _svd_complement_trivial(vecs)
        assert orthogonal_complement_trivial(strip_stacks(vecs), tol=1e-8) == expected, (trial, eps)
        seen.add(expected)
    assert seen == {True, False}


def test_mixed_module_raises():
    other = module_over((2, 3), 2)
    with pytest.raises(ShapeMismatchError):
        inner(MOD.element([MOD.shape.zero()] * MOD.rank), other.element([other.shape.zero()] * other.rank))
