"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with `pytest -v tests/test_acceptance.py -s` to see the lines as they
appear; without -s pytest shows them in the captured-output section.
"""

import time

import numpy as np

from moddiag import (
    ModuleOperator,
    diagonalize_normal,
    diagonalize_selfadjoint,
    eig_hermitian,
    inner,
    left_action,
    leq,
    moment_deviation,
    projection_ladder,
    theta,
    two_block_gallery,
    verify_eigensystem,
)
from moddiag.cli import main

from helpers import (
    ACCEPTANCE_SHAPES,
    module_over,
    random_hermitian,
    random_normal_operator,
    random_positive_operator,
    random_selfadjoint_operator,
    random_unitary_element,
)


def _criterion(n, body):
    try:
        body()
    except BaseException:
        print(f"criterion {n}: fail")
        raise
    print(f"criterion {n}: pass")


def test_criterion_1_worked_two_generator_example():
    def body():
        start = time.perf_counter()
        gal = two_block_gallery()
        k = gal.operator
        shape = gal.shape

        def alg(diag_entries):
            return shape.diagonal([list(diag_entries)])

        x, y = gal.generators
        assert (k(x) - left_action(alg((1, 9)), x)).norm() <= 1e-12
        assert (k(y) - left_action(alg((4, 4)), y)).norm() <= 1e-12
        (x1, v1), (x2, v2) = gal.families[1].pairs
        assert (k(x1) - left_action(alg((1, 4)), x1)).norm() <= 1e-12
        assert (k(x2) - left_action(alg((4, 9)), x2)).norm() <= 1e-12
        assert v1.isclose(alg((1, 4))) and v2.isclose(alg((4, 9)))
        assert inner(x1, x1).isclose(shape.identity(), tol=1e-12)
        assert inner(x2, x2).isclose(shape.identity(), tol=1e-12)
        assert leq(alg((1, 4)), alg((4, 9)))
        assert not leq(alg((1, 9)), alg((4, 4)))
        assert not leq(alg((4, 4)), alg((1, 9)))
        spectrum = sorted(z.real for z in diagonalize_selfadjoint(k).scalar_spectrum()[0])
        assert np.allclose(spectrum, [1.0, 4.0, 4.0, 9.0], atol=1e-10)
        assert main(["example8"]) == 0
        assert time.perf_counter() - start < 1.0

    _criterion(1, body)


def test_criterion_2_closed_form_ladders():
    def body():
        start = time.perf_counter()
        for n in (2, 3, 8):
            lad = projection_ladder(n)
            assert lad.alphas == tuple(2.0 ** -(m + 1) for m in range(n))
            worst = max(
                (lad.operator(p.vector) - left_action(p.value, p.vector)).norm()
                for p in lad.expected
            )
            assert worst <= 1e-10
            res = diagonalize_selfadjoint(lad.operator)
            report = verify_eigensystem(lad.operator, res)
            assert report.overall, report.summary()
            assert moment_deviation(lad.operator, res) <= 1e-7
        assert time.perf_counter() - start < 1.0

    _criterion(2, body)


def test_criterion_3_random_selfadjoint_suite():
    def body():
        start = time.perf_counter()
        rng = np.random.default_rng(20260815)
        for i in range(100):
            sizes = ACCEPTANCE_SHAPES[i % 4]
            rank = (i // 4) % 4 + 1
            mod = module_over(sizes, rank)
            k = random_selfadjoint_operator(mod, rng)
            res = diagonalize_selfadjoint(k)
            report = verify_eigensystem(k, res, tol=1e-8, moment_tol=1e-7)
            assert report.overall, (sizes, rank, report.summary())
            assert report.ordering_ok
            assert len(res.ordering_certificate) >= rank - 1
            rebuilt = ModuleOperator.zero(mod)
            for p in res.pairs:
                assert p.support.isclose(mod.shape.identity(), tol=1e-10)
                rebuilt = rebuilt + theta(p.vector, left_action(p.value, p.vector))
            assert (rebuilt - k).norm() <= 1e-9
        assert time.perf_counter() - start < 30.0

    _criterion(3, body)


def test_criterion_4_positive_definite_keeps_unit_supports():
    def body():
        rng = np.random.default_rng(40)
        for i in range(25):
            sizes = ACCEPTANCE_SHAPES[i % 4]
            mod = module_over(sizes, i % 3 + 1)
            k = random_positive_operator(mod, rng)
            res = diagonalize_selfadjoint(k)
            one = mod.shape.identity()
            for p in res.pairs:
                assert (inner(p.vector, p.vector) - one).norm() <= 1e-9
                assert (p.support - one).norm() <= 1e-9

    _criterion(4, body)


def test_criterion_5_unitary_conjugation_of_eigenpairs():
    def body():
        rng = np.random.default_rng(50)
        for i in range(25):
            sizes = ACCEPTANCE_SHAPES[i % 4]
            mod = module_over(sizes, i % 3 + 1)
            k = random_selfadjoint_operator(mod, rng)
            u = random_unitary_element(mod.shape, rng)
            res = diagonalize_selfadjoint(k)
            for p in res.pairs:
                vec = left_action(u, p.vector)
                val = u * p.value * u.adjoint()
                residual = (k(vec) - left_action(val, vec)).norm()
                assert residual <= 1e-9, (sizes, residual)

    _criterion(5, body)


def test_criterion_6_normal_extension():
    def body():
        rng = np.random.default_rng(60)
        for i in range(25):
            sizes = ACCEPTANCE_SHAPES[i % 4]
            mod = module_over(sizes, i % 3 + 1)
            k = random_normal_operator(mod, rng)
            res = diagonalize_normal(k)
            report = verify_eigensystem(k, res, tol=1e-8)
            assert report.eigen_residual <= report.residual_bound, report.summary()
            assert report.orthogonality_residual <= report.residual_bound
            assert report.projection_defect <= report.residual_bound
            assert report.support_residual <= report.residual_bound
            assert report.complement_trivial
            assert res.ordering_certificate == ()
        for i in range(5):
            mod = module_over(ACCEPTANCE_SHAPES[i % 4], i % 3 + 1)
            k = random_selfadjoint_operator(mod, rng)
            sa = diagonalize_selfadjoint(k).scalar_spectrum()
            nm = diagonalize_normal(k).scalar_spectrum()
            for block_sa, block_nm in zip(sa, nm):
                a = np.sort_complex(np.array(block_sa))
                b = np.sort_complex(np.array(block_nm))
                assert np.abs(a - b).max() <= 1e-8

    _criterion(6, body)


def test_criterion_7_scalar_eigensolver_floor():
    def body():
        rng = np.random.default_rng(70)
        for _ in range(200):
            d = int(rng.integers(1, 41))
            h = random_hermitian(rng, d)
            res = eig_hermitian(h)
            q, vals = res.vectors, res.values
            norm_h = float(np.linalg.norm(h, 2))
            recon = q.conj().T @ np.diag(vals) @ q
            assert np.abs(recon - h).max() <= 1e-9 * (1 + norm_h)
            assert np.abs(q @ q.conj().T - np.eye(d)).max() <= 1e-10
            for m in (1, 2, 3):
                lhs = float(np.trace(np.linalg.matrix_power(h, m)).real)
                rhs = float(np.sum(vals**m))
                assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs), abs(rhs))

    _criterion(7, body)
