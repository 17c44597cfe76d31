"""Adjointable operators: pairing identity, rank-one building blocks, norms."""

import numpy as np
import pytest

from moddiag import (
    AlgebraShape,
    HilbertModule,
    ModuleOperator,
    ShapeMismatchError,
    inner,
    theta,
    two_block_gallery,
)

from helpers import module_over, random_element, random_operator, random_selfadjoint_operator

PAIRING_TOL = 1e-10
EXACT = 1e-13

MOD = module_over((2, 1, 3), 3)


def _max_dev(a, b):
    return (a - b).entrywise_max()


def test_identity_and_zero_apply():
    rng = np.random.default_rng(51)
    x = random_element(MOD, rng)
    eye = ModuleOperator.identity(MOD)
    assert (eye(x) - x).norm() == 0.0
    assert ModuleOperator.zero(MOD)(x).norm() == 0.0


def test_apply_matches_entry_formula():
    # (T x)_j = sum_i x_i T_ij, computed here coordinate by coordinate
    rng = np.random.default_rng(52)
    t = random_operator(MOD, rng)
    x = random_element(MOD, rng)
    y = t(x)
    for j in range(MOD.rank):
        acc = MOD.shape.zero()
        for i in range(MOD.rank):
            acc = acc + x.coord(i) * t.entry(i, j)
        assert y.coord(j).isclose(acc, tol=1e-11 * (1 + acc.norm()))


def test_pairing_identity_hundred_triples():
    rng = np.random.default_rng(54)
    worst = 0.0
    for _ in range(100):
        t = random_operator(MOD, rng)
        x = random_element(MOD, rng)
        y = random_element(MOD, rng)
        dev = (inner(t(x), y) - inner(x, t.adjoint()(y))).norm()
        worst = max(worst, dev / (1 + inner(x, y).norm()))
    assert worst <= PAIRING_TOL


def test_adjoint_involution_and_products():
    rng = np.random.default_rng(55)
    s = random_operator(MOD, rng)
    t = random_operator(MOD, rng)
    assert _max_dev(t.adjoint().adjoint(), t) <= EXACT
    assert _max_dev((s @ t).adjoint(), t.adjoint() @ s.adjoint()) <= 1e-11


def test_compose_is_self_after_other():
    rng = np.random.default_rng(56)
    s = random_operator(MOD, rng)
    t = random_operator(MOD, rng)
    x = random_element(MOD, rng)
    via_compose = s.compose(t)(x)
    stepwise = s(t(x))
    assert (via_compose - stepwise).norm() <= 1e-11 * (1 + stepwise.norm())


def test_theta_entries():
    rng = np.random.default_rng(57)
    x = random_element(MOD, rng)
    y = random_element(MOD, rng)
    th = theta(x, y)
    for i in range(MOD.rank):
        for j in range(MOD.rank):
            want = x.coord(i).adjoint() * y.coord(j)
            assert th.entry(i, j).isclose(want, tol=1e-12 * (1 + want.norm()))


def test_theta_action():
    # theta_{x,y}(z) = <z, x> y
    rng = np.random.default_rng(58)
    x = random_element(MOD, rng)
    y = random_element(MOD, rng)
    z = random_element(MOD, rng)
    from moddiag import left_action

    want = left_action(inner(z, x), y)
    got = theta(x, y)(z)
    assert (got - want).norm() <= 1e-10 * (1 + want.norm())


def test_theta_adjoint_swaps_arguments():
    rng = np.random.default_rng(59)
    x = random_element(MOD, rng)
    y = random_element(MOD, rng)
    assert _max_dev(theta(x, y).adjoint(), theta(y, x)) <= EXACT


def test_theta_ideal_identities():
    rng = np.random.default_rng(60)
    s = random_operator(MOD, rng)
    x = random_element(MOD, rng)
    y = random_element(MOD, rng)
    lhs = s.compose(theta(x, y))
    rhs = theta(x, s(y))
    assert _max_dev(lhs, rhs) <= 1e-10 * (1 + rhs.entrywise_max())
    lhs2 = theta(x, y).compose(s)
    rhs2 = theta(s.adjoint()(x), y)
    assert _max_dev(lhs2, rhs2) <= 1e-10 * (1 + rhs2.entrywise_max())


def test_basis_thetas_resolve_any_operator():
    rng = np.random.default_rng(61)
    t = random_operator(MOD, rng)
    acc = ModuleOperator.zero(MOD)
    for i in range(MOD.rank):
        e = MOD.basis_element(i)
        acc = acc + theta(e, t(e))
    assert _max_dev(acc, t) <= 1e-11 * (1 + t.entrywise_max())


def test_operator_norm_basics():
    assert ModuleOperator.identity(MOD).norm() == pytest.approx(1.0, abs=1e-12)
    assert ModuleOperator.zero(MOD).norm() == 0.0
    rng = np.random.default_rng(62)
    s = random_operator(MOD, rng)
    t = random_operator(MOD, rng)
    assert (s @ t).norm() <= s.norm() * t.norm() * (1 + 1e-10)
    assert (t.adjoint() @ t).norm() == pytest.approx(t.norm() ** 2, rel=1e-9)


def test_gallery_rank_one_norm():
    gal = two_block_gallery()
    x = gal.generators[0]
    assert theta(x, x).norm() == pytest.approx(inner(x, x).norm(), rel=1e-12)
    assert theta(x, x).norm() == pytest.approx(9.0, abs=1e-10)


def test_selfadjoint_and_normal_flags():
    rng = np.random.default_rng(63)
    h = random_selfadjoint_operator(MOD, rng)
    assert h.is_selfadjoint()
    assert h.is_normal()
    t = random_operator(MOD, rng)
    assert not t.is_selfadjoint()
    u = h @ h - 2.0 * h
    assert u.is_normal()


def test_operator_shape_validation():
    with pytest.raises(ShapeMismatchError):
        ModuleOperator(MOD, [np.zeros((2, 2))] * 3)
    other = module_over((2, 1, 3), 2)
    rng = np.random.default_rng(67)
    with pytest.raises(ShapeMismatchError):
        random_operator(MOD, rng)(random_element(other, rng))


@pytest.mark.parametrize("s", [1e-13, 1e-10, 1e-6, 1e12])
def test_flags_are_relative_to_the_largest_entry(s):
    mod = module_over((2, 1), 1)
    jordan = ModuleOperator(mod, [s * np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((1, 1))])
    assert not jordan.is_selfadjoint()
    assert not jordan.is_normal()


def test_flags_accept_scaled_selfadjoint_and_normal_operators():
    rng = np.random.default_rng(65)
    h = random_selfadjoint_operator(MOD, rng)
    n = h @ h + 1j * h
    for s in 10.0 ** np.arange(-200, 201, 25):
        assert (s * h).is_selfadjoint()
        assert (s * n).is_normal()
        assert not (s * n).is_selfadjoint()
    assert ModuleOperator.zero(MOD).is_selfadjoint()
    assert ModuleOperator.zero(MOD).is_normal()
