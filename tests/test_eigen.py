"""Jacobi eigensolver checked against numpy.linalg as an independent oracle."""

import logging
import math

import numpy as np
import pytest

from moddiag import (
    ConvergenceError,
    NotHermitianError,
    NotNormalError,
    eig_hermitian,
    eig_normal,
    projection_ladder,
)
from moddiag import _tridiagonal, eigen

from helpers import random_hermitian

VALUE_TOL = 1e-11
RESIDUAL_TOL = 1e-11
UNITARY_TOL = 1e-12


def _partly_live(rng):
    # a dense 4x4 block beside an exactly degenerate diagonal one (d = 12):
    # most pairs of every tournament round are below threshold from the start
    a = np.zeros((12, 12), dtype=complex)
    a[:4, :4] = random_hermitian(rng, 4)
    a[4:, 4:] = np.diag([2.0] * 5 + [-1.0] * 3)
    return a


def test_matches_numpy_eigenvalues():
    rng = np.random.default_rng(11)
    for d in (1, 2, 3, 5, 6, 7, 8, 9, 13, 16, 21, 32, 40, 96, "partly live"):
        a = _partly_live(rng) if d == "partly live" else random_hermitian(rng, d)
        got = eig_hermitian([a])[0].values
        want = np.sort(np.linalg.eigvalsh(a))[::-1]
        scale = 1.0 + np.abs(want).max()
        assert np.abs(got - want).max() <= VALUE_TOL * scale


def test_reconstruction_and_unitarity():
    rng = np.random.default_rng(12)
    for d in (2, 4, 6, 7, 16, 33, 96, "partly live"):
        a = _partly_live(rng) if d == "partly live" else random_hermitian(rng, d)
        d = a.shape[0]
        res = eig_hermitian([a])[0]
        q, vals = res.vectors, res.values
        scale = 1.0 + np.abs(a).max()
        # rows of q are the eigenvectors, so q A q* is the diagonal
        recon = q.conj().T @ np.diag(vals) @ q
        assert np.abs(recon - a).max() <= RESIDUAL_TOL * scale
        assert np.abs(q @ q.conj().T - np.eye(d)).max() <= UNITARY_TOL


def test_values_sorted_descending():
    rng = np.random.default_rng(13)
    vals = eig_hermitian([random_hermitian(rng, 12)])[0].values
    assert np.all(np.diff(vals) <= 0)


def test_deterministic_repeat():
    rng = np.random.default_rng(14)
    a = random_hermitian(rng, 9)
    first = eig_hermitian([a])[0]
    second = eig_hermitian([a])[0]
    assert np.array_equal(first.values, second.values)
    assert np.array_equal(first.vectors, second.vectors)


def test_one_by_one():
    res = eig_hermitian([np.array([[3.5 + 0j]])])[0]
    assert res.values[0] == 3.5
    assert res.vectors[0, 0] == 1.0


def test_already_diagonal():
    a = np.diag([4.0, 4.0, 1.0]).astype(complex)
    res = eig_hermitian([a])[0]
    assert np.array_equal(res.values, np.array([4.0, 4.0, 1.0]))


def test_degenerate_spectrum():
    # projector with a fat eigenspace; eigenvalues must still come out exact
    rng = np.random.default_rng(15)
    q = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))[0]
    a = q[:, :4] @ q[:, :4].conj().T
    vals = eig_hermitian([a])[0].values
    assert np.abs(vals - np.array([1, 1, 1, 1, 0, 0])).max() <= 1e-12


def test_rejects_non_hermitian():
    a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(NotHermitianError):
        eig_hermitian([a])


def test_rejects_non_square():
    with pytest.raises(ValueError):
        eig_hermitian([np.zeros((2, 3), dtype=complex)])


def test_rejects_non_finite():
    a = np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError):
        eig_hermitian([a])


def test_normal_matches_numpy():
    rng = np.random.default_rng(16)
    for d in (2, 3, 6, 10):
        q = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
        diag = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        a = q @ np.diag(diag) @ q.conj().T
        vals, vecs = eig_normal([a])[0]
        want = np.array(sorted(np.linalg.eigvals(a), key=lambda z: (-z.real, -z.imag)))
        scale = 1.0 + np.abs(want).max()
        assert np.abs(vals - want).max() <= 1e-8 * scale
        recon = vecs.conj().T @ np.diag(vals) @ vecs
        assert np.abs(recon - a).max() <= 1e-8 * scale
        assert np.abs(vecs @ vecs.conj().T - np.eye(d)).max() <= 1e-9


def test_normal_with_tied_real_parts():
    # eigenvalues that share a real part only separate in the skew part;
    # round-off in the shared real part must not decide their order
    rng = np.random.default_rng(17)
    cases = [np.array([1.0 + 1.0j, 1.0 + 2.0j, 3.0 + 0.0j])] * 50
    cases.append(np.array([2.0, -1.0 - 1.0j, 0.5j, 2.0 + 3.0j, -1.0 + 2.0j, 0.0, -1.0, 2.0 - 1.0j]))
    # an exactly repeated eigenvalue, and one run over the whole matrix
    cases.append(np.array([1.0 + 1.0j, 1.0 + 1.0j, 2.0, -1.0 + 0.5j]))
    cases.append(np.array([0.5 + 2.0j, 0.5 - 1.0j, 0.5 + 0.3j, 0.5, 0.5 - 3.0j]))
    for vals in cases:
        d = vals.size
        q = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
        a = q @ np.diag(vals) @ q.conj().T
        got = eig_normal([a])[0][0]
        want = np.array(sorted(vals, key=lambda z: (-z.real, -z.imag)))
        assert np.abs(got - want).max() <= 1e-9


def test_normal_is_scale_covariant():
    # the runs of tied real parts are measured against the size of N, so at
    # no scale do distinct real parts merge into one run (which would sort
    # them by imaginary part) or a purely imaginary spectrum split apart
    rng = np.random.default_rng(24)
    q = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    spectra = (
        np.array([2.0 + 1.0j, 1.0 - 1.0j, -1.0 + 2.0j, -2.0 + 0.5j]),
        1j * np.array([2.0, 1.0, -0.5, -3.0]),
    )
    for vals in spectra:
        a = q @ np.diag(vals) @ q.conj().T
        for s in (1e-14, 1e-12, 1.0, 1e12):
            assert np.abs(eig_normal([s * a])[0][0] / s - vals).max() <= 1e-9


def test_normal_accepts_hermitian_input():
    rng = np.random.default_rng(18)
    a = random_hermitian(rng, 7)
    vals = eig_normal([a])[0][0]
    assert np.abs(vals.imag).max() <= 1e-10
    want = np.sort(np.linalg.eigvalsh(a))[::-1]
    assert np.abs(vals.real - want).max() <= 1e-9


def test_normal_rejects_non_normal():
    a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(NotNormalError):
        eig_normal([a])


JORDAN = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


@pytest.mark.parametrize("s", [1e-13, 1e-10, 1e-6, 1e12])
def test_small_or_large_non_normal_input_is_rejected(s):
    # the Hermitian, commutator and residual bounds are relative to the
    # largest entry, so a tiny Jordan block is as non-normal as a unit one
    with pytest.raises(NotHermitianError):
        eig_hermitian([s * JORDAN])
    with pytest.raises(NotNormalError):
        eig_normal([s * JORDAN])


def test_scaled_hermitian_and_normal_input_is_accepted():
    rng = np.random.default_rng(25)
    h = random_hermitian(rng, 5)
    q = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))[0]
    n = q @ np.diag(rng.standard_normal(5) + 1j * rng.standard_normal(5)) @ q.conj().T
    want_h = eig_hermitian([h])[0].values
    want_n = eig_normal([n])[0][0]
    for s in 10.0 ** np.arange(-200, 201, 25):
        assert np.abs(eig_hermitian([s * h])[0].values / s - want_h).max() <= 1e-12
        assert np.abs(eig_normal([s * n])[0][0] / s - want_n).max() <= 1e-9
    zero = np.zeros((3, 3), dtype=complex)
    assert not eig_hermitian([zero])[0].values.any()
    assert not eig_normal([zero])[0][0].any()


def test_convergence_error_is_exported():
    assert issubclass(ConvergenceError, Exception)


def test_tournament_schedule_covers_every_pair_once():
    for d in range(2, 22):
        seen = []
        for p, q in eigen._tournament_rounds(d):
            used = np.concatenate([p, q])
            assert len(set(used.tolist())) == used.size  # disjoint within a round
            assert np.all(p < q) and used.min() >= 0 and used.max() < d
            seen += list(zip(p.tolist(), q.tolist()))
        assert sorted(seen) == [(p, q) for p in range(d) for q in range(p + 1, d)]


def test_power_of_two_scaling_is_exact():
    rng = np.random.default_rng(19)
    for d in (3, 8, 16, 96):
        a = random_hermitian(rng, d)
        base = eig_hermitian([a])[0]
        for k in (-600, -300, 0, 300, 600):
            res = eig_hermitian([2.0**k * a])[0]
            assert np.array_equal(res.values, 2.0**k * base.values)
            assert np.array_equal(res.vectors, base.vectors)


def test_eigenvalues_are_scale_covariant():
    rng = np.random.default_rng(20)
    for d in (3, 8, 16, 96):
        a = random_hermitian(rng, d)
        want = np.sort(np.linalg.eigvalsh(a))[::-1]
        for s in (1e-200, 1e-170, 1e-100, 1.0, 1e100, 1e155, 1e200):
            got = eig_hermitian([s * a])[0].values / s
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_debug_record_reports_the_solve(caplog):
    rng = np.random.default_rng(21)
    caplog.set_level(logging.INFO, logger="moddiag.eigen")
    eig_hermitian([random_hermitian(rng, 8)])
    assert not caplog.records
    caplog.set_level(logging.DEBUG, logger="moddiag.eigen")
    eig_hermitian([random_hermitian(rng, 3)])
    eig_hermitian([random_hermitian(rng, 8)])
    first, second = (r.getMessage() for r in caplog.records)
    assert first.startswith("eig_hermitian matrix 0 of 1: d=3, ")
    assert second.startswith("eig_hermitian matrix 0 of 1: d=8, ")
    for msg in (first, second):
        assert "sweeps" in msg and "rotations" in msg and "target" in msg
        assert "ordering" not in msg


def test_nonconvergence_reports_the_solve(monkeypatch):
    monkeypatch.setattr(eigen, "MAX_SWEEPS", 1)
    for d in (4, 8):
        with pytest.raises(ConvergenceError) as exc:
            eig_hermitian([random_hermitian(np.random.default_rng(23), d)])
        msg = str(exc.value)
        assert f"matrix 0 of 1: d={d}, 1 sweeps, " in msg
        assert "off-diagonal norm" in msg and "target" in msg


# --- stacked solves: one kernel call for many matrices -------------------


def _lone(mats, tol=1e-12):
    return [eig_hermitian([m], tol)[0] for m in mats]


def test_padded_stack_agrees_with_lone_calls():
    # orders 1..15 and a sparse order 16, which stays with Jacobi, pad to
    # 16; padding is exact, so only the order of the rotations inside a
    # sweep differs from a lone call
    rng = np.random.default_rng(31)
    mats = [random_hermitian(rng, d) for d in range(1, 16)] + [_sparse(rng, 16, 4)]
    for got, want, a in zip(eig_hermitian(mats), _lone(mats), mats):
        d = len(a)
        assert got.values.shape == (d,) and got.vectors.shape == (d, d)
        assert np.abs(got.values - want.values).max() <= 1e-13 * np.linalg.norm(a, 2)
        recon = got.vectors.conj().T @ np.diag(got.values) @ got.vectors
        assert np.abs(recon - a).max() <= RESIDUAL_TOL * (1.0 + np.abs(a).max())
        assert np.abs(got.vectors @ got.vectors.conj().T - np.eye(d)).max() <= UNITARY_TOL


def test_equal_order_stacks_are_bit_identical_to_lone_calls():
    rng = np.random.default_rng(32)
    ladder = [(b + b.conj().T) / 2.0 for b in projection_ladder(32).operator.blocks]
    stacks = [[random_hermitian(rng, d) for _ in range(4)] for d in (2, 3, 4, 5)] + [
        ladder,
        [random_hermitian(rng, 96) for _ in range(2)],
        [random_hermitian(rng, 7) for _ in range(5)],
        [random_hermitian(rng, 6), _partly_live(rng)[:6, :6], np.eye(6, dtype=complex)],
        [_partly_live(rng) for _ in range(3)],
    ]
    for mats in stacks:
        for got, want in zip(eig_hermitian(mats), _lone(mats)):
            assert np.array_equal(got.values, want.values)
            assert np.array_equal(got.vectors, want.vectors)


def _phase_rule_holds(vectors):
    for row in vectors:
        mags = np.abs(row)
        lead = row[np.argmax(mags > 1e-8 * mags.max())]
        if not (abs(lead.imag) <= 1e-15 * abs(lead) and lead.real > 0.0):
            return False
    return True


def test_degenerate_blocks_keep_tie_order_and_phase_rule():
    rng = np.random.default_rng(33)
    q = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))[0]
    repeated = q @ np.diag([2.0, -1.0, 2.0, -1.0, 2.0]) @ q.conj().T
    ties = np.diag([1.0, 3.0, 1.0, 3.0]).astype(complex)
    ladder = [(b + b.conj().T) / 2.0 for b in projection_ladder(4).operator.blocks]
    mats = [np.eye(3, dtype=complex), ties, repeated] + ladder
    res = eig_hermitian(mats)
    for r, a in zip(res, mats):
        assert np.all(np.diff(r.values) <= 0.0)
        assert _phase_rule_holds(r.vectors)
        want = np.sort(np.linalg.eigvalsh(a))[::-1]
        assert np.abs(r.values - want).max() <= 1e-13 * np.abs(want).max()
    # nothing rotates in the identity or in the diagonal ties, so the
    # stable sort alone orders them: equal values keep their input order
    assert np.array_equal(res[0].values, [1.0, 1.0, 1.0]) and np.array_equal(res[0].vectors, np.eye(3))
    assert np.array_equal(res[1].values, [3.0, 3.0, 1.0, 1.0])
    assert np.array_equal(res[1].vectors, np.eye(4)[[1, 3, 0, 2]])


def test_stack_scaling_by_powers_of_two_is_exact():
    # each matrix has its own prescale, so its neighbour's units do not matter
    rng = np.random.default_rng(34)
    for d in (3, 8):
        a, b = random_hermitian(rng, d), random_hermitian(rng, d + 2)
        base = eig_hermitian([a, b])
        for j in (-600, 600):
            scaled = eig_hermitian([2.0**-j * a, 2.0**j * b])
            assert np.array_equal(scaled[0].values, 2.0**-j * base[0].values)
            assert np.array_equal(scaled[1].values, 2.0**j * base[1].values)
            for got, want in zip(scaled, base):
                assert np.array_equal(got.vectors, want.vectors)


def test_zero_and_one_by_one_blocks_inside_a_stack():
    rng = np.random.default_rng(35)
    h = random_hermitian(rng, 5)
    mats = [np.zeros((4, 4), dtype=complex), np.array([[-2.5 + 0j]]), h, np.zeros((1, 1), dtype=complex)]
    zero, single, dense, tiny = eig_hermitian(mats)
    assert np.array_equal(zero.values, np.zeros(4)) and np.array_equal(zero.vectors, np.eye(4))
    assert np.array_equal(single.values, [-2.5]) and np.array_equal(single.vectors, [[1.0]])
    assert np.array_equal(tiny.values, [0.0]) and np.array_equal(tiny.vectors, [[1.0]])
    want = np.sort(np.linalg.eigvalsh(h))[::-1]
    assert np.abs(dense.values - want).max() <= VALUE_TOL * np.abs(want).max()


def test_non_hermitian_element_of_a_stack_is_rejected():
    rng = np.random.default_rng(36)
    mats = [random_hermitian(rng, 3), JORDAN, random_hermitian(rng, 4)]
    with pytest.raises(NotHermitianError, match="matrix 1 of the stack"):
        eig_hermitian(mats)


def test_stacked_nonconvergence_names_each_unconverged_matrix(monkeypatch):
    rng = np.random.default_rng(37)
    mats = [np.diag([1.0, 2.0]).astype(complex), random_hermitian(rng, 4), random_hermitian(rng, 8)]
    monkeypatch.setattr(eigen, "MAX_SWEEPS", 1)
    with pytest.raises(ConvergenceError) as exc:
        eig_hermitian(mats)
    msg = str(exc.value)
    assert "matrix 0 of 3" not in msg
    for i, d in ((1, 4), (2, 8)):
        assert f"matrix {i} of 3: d={d}, 1 sweeps, " in msg
    assert msg.count("off-diagonal norm") == 2 and msg.count("target") == 2


def test_stacked_solve_logs_one_record_per_matrix(caplog):
    rng = np.random.default_rng(38)
    caplog.set_level(logging.DEBUG, logger="moddiag.eigen")
    eig_hermitian([random_hermitian(rng, d) for d in (2, 9, 1)])
    messages = [r.getMessage() for r in caplog.records]
    assert len(messages) == 3
    for i, (msg, d) in enumerate(zip(messages, (2, 9, 1))):
        assert f"matrix {i} of 3: d={d}, " in msg
        assert "sweeps" in msg and "rotations" in msg and "target" in msg


def test_equal_order_stack_records_match_lone_calls(caplog):
    # a nearly diagonal matrix converges sweeps before its neighbours and
    # sits out the rest; each record still counts its own sweeps and rotations
    rng = np.random.default_rng(40)
    easy = np.diag(np.arange(8.0)).astype(complex) + 1e-6 * random_hermitian(rng, 8)
    mats = [random_hermitian(rng, 8), easy, random_hermitian(rng, 8)]
    caplog.set_level(logging.DEBUG, logger="moddiag.eigen")
    _lone(mats)
    lone = [r.getMessage() for r in caplog.records]
    assert all(msg.startswith("eig_hermitian matrix 0 of 1: ") for msg in lone)
    lone = [msg.removeprefix("eig_hermitian matrix 0 of 1: ") for msg in lone]
    caplog.clear()
    eig_hermitian(mats)
    stacked = [r.getMessage() for r in caplog.records]
    assert stacked == [f"eig_hermitian matrix {i} of 3: {msg}" for i, msg in enumerate(lone)]
    assert lone[0].split(", ")[1] != lone[1].split(", ")[1]  # sweep counts differ


def test_row_phases_round_as_one_row_at_a_time():
    # the vectorized rule must give the bits of the per-row scalar rule
    rng = np.random.default_rng(41)
    q = np.linalg.qr(rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40)))[0]
    want = np.array(q)
    for r in range(len(want)):
        mags = np.abs(want[r])
        pivot = want[r, int(np.argmax(mags > 1e-8 * mags.max()))]
        want[r] *= np.conj(pivot) / abs(pivot)
    assert np.array_equal(eigen._fix_row_phases(q), want)


def test_stacked_normal_solve_agrees_with_lone_calls():
    # several tie runs per matrix, over matrices of different orders, share
    # one stacked solve of the compressions
    rng = np.random.default_rng(39)
    mats = []
    for vals in (
        np.array([1.0 + 1.0j, 1.0 + 2.0j, 3.0 + 0.0j]),
        np.array([2.0, -1.0 - 1.0j, 0.5j, 2.0 + 3.0j, -1.0 + 2.0j, 0.0, -1.0, 2.0 - 1.0j]),
        np.array([0.5 + 1.0j, -2.0]),
    ):
        d = vals.size
        q = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
        mats.append(q @ np.diag(vals) @ q.conj().T)
    for (got, vectors), m in zip(eig_normal(mats), mats):
        want = eig_normal([m])[0][0]
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert np.abs(vectors @ m @ vectors.conj().T - np.diag(got)).max() <= 1e-9


def test_the_solvers_take_a_sequence_and_refuse_a_bare_matrix():
    # a list or tuple of matrices, even of one, gets one result per matrix;
    # a bare matrix, as an array or as nested lists, is refused
    rng = np.random.default_rng(42)
    h = random_hermitian(rng, 7)
    (want,) = eig_hermitian([h])
    assert isinstance(want, eigen.HermitianEig) and want.values.shape == (7,)
    ((want_values, want_vectors),) = eig_normal([h])
    for seq in ([h], (h,), [h.tolist()]):
        (got,) = eig_hermitian(seq)
        assert np.array_equal(got.values, want.values) and np.array_equal(got.vectors, want.vectors)
        ((got_values, got_vectors),) = eig_normal(seq)
        assert np.array_equal(got_values, want_values) and np.array_equal(got_vectors, want_vectors)
    for solve in (eig_hermitian, eig_normal):
        for bad in (h, h.tolist(), h[None], []):
            with pytest.raises(ValueError, match="nonempty list or tuple"):
                solve(bad)


# --- the tridiagonal kernel: dense matrices of order 16 and up ------------


def _records(caplog, mats):
    caplog.clear()
    caplog.set_level(logging.DEBUG, logger="moddiag.eigen")
    eig_hermitian(mats)
    return [r.getMessage() for r in caplog.records]


def _sparse(rng, d, couplings):
    a = np.diag(rng.standard_normal(d)).astype(complex)
    for p, q in rng.choice(d, size=(couplings, 2), replace=False):
        a[p, q] = rng.standard_normal() + 1j * rng.standard_normal()
        a[q, p] = np.conj(a[p, q])
    return a


def _assert_eigensystem(res, a):
    d = len(a)
    want = np.sort(np.linalg.eigvalsh(a))[::-1]
    scale = 1.0 + np.abs(a).max()
    assert np.all(np.diff(res.values) <= 0.0)
    assert np.abs(res.values - want).max() <= VALUE_TOL * scale
    recon = res.vectors.conj().T @ np.diag(res.values) @ res.vectors
    assert np.abs(recon - a).max() <= RESIDUAL_TOL * scale
    assert np.abs(res.vectors @ res.vectors.conj().T - np.eye(d)).max() <= UNITARY_TOL
    assert _phase_rule_holds(res.vectors)


def test_matrices_are_routed_by_order_and_coupling_count(caplog):
    # Jacobi keeps the sparse and the small matrices; a dense one of order
    # 16 or more goes to the tridiagonal kernel
    rng = np.random.default_rng(50)
    ladder = [(b + b.conj().T) / 2.0 for b in projection_ladder(32).operator.blocks]
    sparse = _sparse(rng, 96, 6)
    records = _records(caplog, ladder + [sparse, random_hermitian(rng, 15)])
    assert len(records) == 34
    assert all("sweeps" in r and "rotations" in r and "bisection" not in r for r in records)
    (record,) = _records(caplog, [random_hermitian(rng, 96)])
    assert record.startswith("eig_hermitian matrix 0 of 1: d=96, 13 bisection rounds, 2 inverse-iteration steps, ")
    assert "residual" in record and "target" in record and "sweeps" not in record


def test_mixed_stack_records_carry_each_kernels_words(caplog, monkeypatch):
    # Jacobi and tridiagonal matrices interleaved in one call: each line
    # takes its own kernel's words, in matrix order
    rng = np.random.default_rng(60)
    mats = [random_hermitian(rng, 3), _sparse(rng, 96, 6), random_hermitian(rng, 96), random_hermitian(rng, 8)]
    records = _records(caplog, mats)
    assert len(records) == 4
    for i, (record, d) in enumerate(zip(records, (3, 96, 96, 8))):
        assert record.startswith(f"eig_hermitian matrix {i} of 4: d={d}, ")
        if i == 2:
            assert " bisection rounds, " in record and " inverse-iteration steps, residual " in record
            assert "sweeps" not in record and "rotations" not in record
        else:
            assert " sweeps, " in record and " rotations, off-diagonal norm " in record
            assert "bisection" not in record and "inverse-iteration" not in record
    # the sparse matrix's couplings are disjoint, so one sweep settles it
    assert "1 sweeps, 6 rotations, off-diagonal norm" in records[1]
    monkeypatch.setattr(eigen, "MAX_SWEEPS", 1)
    with pytest.raises(ConvergenceError) as exc:
        eig_hermitian(mats)
    msg = str(exc.value)
    assert "matrix 1 of 4" not in msg and "matrix 2 of 4" not in msg and "bisection" not in msg
    for i, d in ((0, 3), (3, 8)):
        assert f"matrix {i} of 4: d={d}, 1 sweeps, " in msg
    assert msg.count("rotations, off-diagonal norm") == 2 and msg.count("target") == 2


def test_clustered_dense_spectra():
    rng = np.random.default_rng(51)
    q = np.linalg.qr(rng.standard_normal((96, 96)) + 1j * rng.standard_normal((96, 96)))[0]
    for spectrum in ([1.0] * 48 + [-1.0] * 48, [2.0] * 24 + [1.0] * 24 + [-1.0] * 24 + [-3.0] * 24):
        a = q @ np.diag(spectrum) @ q.conj().T
        a = (a + a.conj().T) / 2.0
        _assert_eigensystem(eig_hermitian([a])[0], a)


def test_block_diagonal_matrix_splits_into_its_blocks():
    # T splits where the blocks meet, so every eigenvector row has exact
    # zeros outside one block; the zero block splits into pieces of one
    # zero each, whose pivots must not overflow the solve
    rng = np.random.default_rng(52)
    a = np.zeros((96, 96), dtype=complex)
    for start, size in ((0, 40), (60, 36)):
        a[start : start + size, start : start + size] = random_hermitian(rng, size)
    res = eig_hermitian([a])[0]
    _assert_eigensystem(res, a)
    block = np.repeat([0, 1, 2], [40, 20, 36])
    first = block[np.argmax(res.vectors != 0, axis=1)]
    assert np.all((res.vectors == 0) | (block[None, :] == first[:, None]))
    assert np.bincount(first).tolist() == [40, 20, 36]


def test_mixed_stack_agrees_with_lone_calls():
    rng = np.random.default_rng(53)
    mats = [random_hermitian(rng, 3), random_hermitian(rng, 8), random_hermitian(rng, 96), _sparse(rng, 96, 6)]
    for i, (got, want, a) in enumerate(zip(eig_hermitian(mats), _lone(mats), mats)):
        _assert_eigensystem(got, a)
        assert np.abs(got.values - want.values).max() <= 1e-13 * np.linalg.norm(a, 2)
        if i == 2:  # the dense matrix is a stack of its own order
            assert np.array_equal(got.values, want.values) and np.array_equal(got.vectors, want.vectors)


def test_dense_solve_is_deterministic():
    a = random_hermitian(np.random.default_rng(54), 96)
    first, second = eig_hermitian([a])[0], eig_hermitian([a])[0]
    assert np.array_equal(first.values, second.values)
    assert np.array_equal(first.vectors, second.vectors)


def test_inverse_iteration_nonconvergence_names_each_matrix(monkeypatch):
    rng = np.random.default_rng(55)
    mats = [random_hermitian(rng, 32), _sparse(rng, 96, 6), random_hermitian(rng, 96)]
    monkeypatch.setattr(_tridiagonal, "MAX_INVERSE_STEPS", 0)
    with pytest.raises(ConvergenceError) as exc:
        eig_hermitian(mats)
    msg = str(exc.value)
    assert "matrix 1 of 3" not in msg
    for i, d in ((0, 32), (2, 96)):
        assert f"matrix {i} of 3: d={d}, 13 bisection rounds, 0 inverse-iteration steps, residual " in msg
    assert msg.count("target") == 2


def test_a_nan_residual_is_a_convergence_error(monkeypatch):
    # NaN compares false with the target, so it must not pass for converged
    monkeypatch.setattr(_tridiagonal, "solve", lambda factors, y: np.full_like(y, np.inf))
    with np.errstate(invalid="ignore"), pytest.raises(ConvergenceError, match=r"matrix 0 of 1: d=32, .* residual nan"):
        eig_hermitian([random_hermitian(np.random.default_rng(57), 32)])


def test_multisection_round_cap_is_a_convergence_error(monkeypatch):
    # a slot still open after MAX_ROUNDS gets a NaN value and fails its
    # matrix instead of looping on
    monkeypatch.setattr(_tridiagonal, "MAX_ROUNDS", 3)
    with np.errstate(invalid="ignore"), pytest.raises(ConvergenceError, match=r"matrix 0 of 1: d=32, 3 bisection rounds, .* residual nan"):
        eig_hermitian([random_hermitian(np.random.default_rng(58), 32)])


@pytest.mark.parametrize("scale", [1e-150, 1e-158, 1e-300, 1e-310, 1e-320])
def test_tiny_first_column_is_solved(scale, caplog):
    # a column far below the matrix's scale must give a finite reflector,
    # and a subnormal entry a phase of modulus 1, or T is wrong or not
    # finite (design notes, "The tridiagonal kernel")
    a = random_hermitian(np.random.default_rng(59), 96)
    a[0, 1:] *= scale
    a[1:, 0] *= scale
    (record,) = _records(caplog, [a])
    assert "bisection rounds" in record
    _assert_eigensystem(eig_hermitian([a])[0], a)


def test_normal_runs_stay_apart_on_the_tridiagonal_kernel(monkeypatch, caplog):
    # three runs of 16 tied real parts: the Hermitian part and the masked
    # compressions are dense, so both solves take the tridiagonal kernel,
    # and each refined row must stay exactly inside its run
    rng = np.random.default_rng(56)
    vals = np.repeat([2.0, 0.5, -1.0], 16) + 1j * rng.standard_normal(48)
    q = np.linalg.qr(rng.standard_normal((48, 48)) + 1j * rng.standard_normal((48, 48)))[0]
    n = q @ np.diag(vals) @ q.conj().T
    calls = []

    def spy(mats, tol=1e-12):
        out = eig_hermitian(mats, tol)
        calls.append(out)
        return out

    monkeypatch.setattr(eigen, "eig_hermitian", spy)
    caplog.set_level(logging.DEBUG, logger="moddiag.eigen")
    got, vectors = eig_normal([n])[0]
    # the oracle's tied real parts differ by round-off, so they are rounded before the sort
    want = np.array(sorted(np.linalg.eigvals(n), key=lambda z: (-round(z.real, 8), -z.imag)))
    assert np.abs(got - want).max() <= 1e-9
    assert np.abs(vectors @ n @ vectors.conj().T - np.diag(got)).max() <= 1e-9
    assert len(calls) == 2 and all("bisection rounds" in r.getMessage() for r in caplog.records)
    refined = calls[1][0].vectors
    run = np.repeat([0, 1, 2], 16)
    first = run[np.argmax(refined != 0, axis=1)]
    assert np.all((refined == 0) | (run[None, :] == first[:, None]))
    assert np.bincount(first).tolist() == [16, 16, 16]


# --- the scalar sweep: calls whose matrices are all of order 8 or less ----


def _spied(monkeypatch, name):
    """Replace the kernel eigen.<name> by a spy; returns the list of the counts of its calls."""
    kernel, counts = getattr(eigen, name), []

    def spy(*args):
        out = kernel(*args)
        counts.append(out[2])
        return out

    monkeypatch.setattr(eigen, name, spy)
    return counts


def _small_battery(rng):
    """Random, sparse, diagonal and power-of-two graded matrices of orders 1 to 8."""
    mats = []
    for d in range(1, 9):
        grade = 2.0 ** -np.arange(d)
        mats += [
            random_hermitian(rng, d),
            _sparse(rng, d, d // 2),
            np.diag(rng.standard_normal(d)).astype(complex),
            grade[:, None] * random_hermitian(rng, d) * grade,
        ]
    return mats


def test_scalar_sweep_agrees_with_the_stacked_sweep(monkeypatch):
    # the same rotations in the same order: only complex products, quotients
    # and moduli round differently in Python than in numpy
    mats = _small_battery(np.random.default_rng(70))
    scalar, stacked = _spied(monkeypatch, "_scalar_jacobi"), _spied(monkeypatch, "_jacobi")
    got = _lone(mats)
    monkeypatch.setattr(eigen, "_SCALAR_ORDER", 0)
    want = _lone(mats)
    assert len(scalar) == len(stacked) == len(mats)
    assert scalar == stacked  # (sweeps, rotations) per matrix
    for g, w, a in zip(got, want, mats):
        _assert_eigensystem(g, a)
        assert np.abs(g.values - w.values).max() <= 1e-13 * np.linalg.norm(a, 2)


def test_scalar_sweep_keeps_exact_zeros():
    # the rows of two interleaved blocks stay exactly inside their block,
    # which eig_normal's run of a refined row's first nonzero entry relies on
    rng = np.random.default_rng(71)
    block = np.array([0, 1, 1, 0, 1, 0, 1, 1])
    a = np.where(block[:, None] == block, random_hermitian(rng, 8), 0.0)
    res = eig_hermitian([a])[0]
    _assert_eigensystem(res, a)
    first = block[np.argmax(res.vectors != 0, axis=1)]
    assert np.all((res.vectors == 0) | (block[None, :] == first[:, None]))
    assert np.bincount(first).tolist() == [3, 5]
    for d in range(2, 9):
        h = random_hermitian(rng, d)
        base = eig_hermitian([h])[0]
        for k in (-600, -7, 9, 600):
            res = eig_hermitian([2.0**k * h])[0]
            assert np.array_equal(res.values, 2.0**k * base.values)
            assert np.array_equal(res.vectors, base.vectors)


def test_mixed_small_order_stacks_are_bit_identical_to_lone_calls():
    # each matrix of a small call is swept alone, so no padding enters
    rng = np.random.default_rng(72)
    for orders in ((2, 5, 8), (8, 1, 3, 8, 6), (7, 4)):
        mats = [random_hermitian(rng, d) for d in orders]
        for got, want in zip(eig_hermitian(mats), _lone(mats)):
            assert np.array_equal(got.values, want.values)
            assert np.array_equal(got.vectors, want.vectors)


def test_scalar_sweep_reports_with_jacobis_words(monkeypatch, caplog):
    rng = np.random.default_rng(73)
    a = random_hermitian(rng, 5)
    scalar = _spied(monkeypatch, "_scalar_jacobi")
    (record,) = _records(caplog, [a])
    sweeps, rotations = scalar[0][0]
    words = f"{sweeps} sweeps, {rotations} rotations, off-diagonal norm "
    assert record.startswith(f"eig_hermitian matrix 0 of 1: d=5, {words}")
    assert "target" in record
    monkeypatch.setattr(eigen, "MAX_SWEEPS", 1)
    with pytest.raises(ConvergenceError) as exc:
        eig_hermitian([a])
    (counted,) = scalar[1]
    assert counted[0] == 1
    assert f"matrix 0 of 1: d=5, 1 sweeps, {counted[1]} rotations, off-diagonal norm " in str(exc.value)


def test_scalar_sweep_writes_the_closed_form_core(caplog):
    # one rotation solves a 2x2 matrix: its values are the closed form, and
    # the coupling an exact zero, not what the slice updates leave there;
    # the largest entry lies in [1/2, 1), so the prescale is by 2**0
    app, aqq, m = 0.75, 0.3, 0.4 - 0.6j
    beta = abs(m)
    tau = (aqq - app) / (2.0 * beta)
    t = math.copysign(1.0 / (abs(tau) + math.sqrt(1.0 + tau * tau)), tau + 0.0)
    h = np.array([[app, m], [m.conjugate(), aqq]])
    (record,) = _records(caplog, [h])
    assert "d=2, 1 sweeps, 1 rotations, off-diagonal norm 0.000e+00 " in record
    assert eig_hermitian([h])[0].values.tolist() == [app - t * beta, aqq + t * beta]
