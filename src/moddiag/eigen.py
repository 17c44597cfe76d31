"""Dense complex Hermitian and normal eigensolvers.

A self-contained complex Jacobi implementation. Every spectral computation
in this package funnels through the two entry points below, which keeps
accuracy and tie-breaking behaviour in one place. Intended for the small
dense matrices this library works with.
"""

from __future__ import annotations

import functools
import logging
import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "MAX_SWEEPS",
    "ConvergenceError",
    "HermitianEig",
    "NotHermitianError",
    "NotNormalError",
    "eig_hermitian",
    "eig_normal",
]

MAX_SWEEPS = 60

# Order from which eig_hermitian sweeps in round-robin rounds rather than
# one rotation at a time; design-notes.md has the timings that place it.
_TOURNAMENT_MIN_ORDER = 6

_log = logging.getLogger(__name__)


class ConvergenceError(RuntimeError):
    """Jacobi sweeps failed to reach the off-diagonal target."""


class NotHermitianError(ValueError):
    """Input matrix is not Hermitian within tolerance."""


class NotNormalError(ValueError):
    """Input matrix is not normal within tolerance."""


class HermitianEig(NamedTuple):
    """Eigensystem of a Hermitian matrix.

    ``values`` is real and sorted descending. ``vectors`` is unitary with
    the eigenvector of ``values[r]`` in row r, so
    ``vectors @ H @ vectors.conj().T`` equals ``diag(values)`` up to
    round-off.
    """

    values: np.ndarray
    vectors: np.ndarray


def _square_complex(matrix) -> np.ndarray:
    a = np.asarray(matrix, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ValueError(f"expected a nonempty square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    return a


def _times_power_of_two(a, e) -> np.ndarray:
    """``a * 2**e`` for a complex array, exact unless a part under- or overflows.

    e may be an int array that broadcasts over a, e.g. ``(m, 1, 1)`` for m matrices.

    Scales the real and imaginary parts with ``np.ldexp``; the factor itself
    is not formed, since ``2.0**-e`` overflows for subnormal input.
    """
    parts = np.ascontiguousarray(a, dtype=np.complex128).view(np.float64)
    return np.ldexp(parts, e).view(np.complex128)


def _hermitian_defect(mats):
    """Largest entry of ``M - M*`` over mats, relative to the largest entry of any.

    0 when all vanish. The mats may also be stacks ``(p, k, k)`` with one p,
    the blocks of p elements: the defect is then one per element.
    """
    top = functools.reduce(np.maximum, [np.abs(m).max(axis=(-2, -1)) for m in mats])
    defect = functools.reduce(np.maximum, [np.abs(m - m.conj().swapaxes(-2, -1)).max(axis=(-2, -1)) for m in mats])
    return defect / np.maximum(top, math.ulp(0.0))  # where top is 0 so is defect


def _normality_defect(mats) -> float:
    """Largest entry of ``N N* - N* N`` over mats, relative to the largest entry squared.

    The mats are first scaled by one power of two that brings that entry
    into ``[1/2, 1)``, so the products neither under- nor overflow and the
    ratio does not depend on the units. 0 when all vanish.
    """
    top = max(float(np.abs(m).max()) for m in mats)
    if top == 0.0:
        return 0.0
    e = math.frexp(top)[1]
    worst = 0.0
    for m in mats:
        n = _times_power_of_two(m, -e)
        nh = n.conj().T
        worst = max(worst, float(np.abs(n @ nh - nh @ n).max()))
    return worst / math.ldexp(top, -e) ** 2


def _offdiag_norm(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of the off-diagonal part of each matrix in a stack ``(m, n, n)``."""
    # summing the masked entries avoids the cancellation of total minus
    # diagonal, which floors near sqrt(eps) * frobenius and never converges
    sq = (np.abs(a) ** 2).reshape(len(a), -1)
    sq[:, :: a.shape[-1] + 1] = 0.0
    return np.sqrt(sq.sum(axis=1))


def _fix_row_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each row so its first sizable entry lands on the positive real axis.

    vectors is a matrix or a stack of them; no row may be zero. A
    contiguous array is rotated in place.
    """
    rows = vectors.reshape(-1, vectors.shape[-1])
    mags = np.abs(rows)
    lead = np.argmax(mags > 1e-8 * mags.max(axis=1, keepdims=True), axis=1)
    pivot = rows[np.arange(len(rows)), lead][:, None]
    # np.hypot rounds as abs() of one complex number does; np.abs of a
    # complex array may differ from both in the last bit
    rows *= np.conj(pivot) / np.hypot(pivot.real, pivot.imag)
    return rows.reshape(vectors.shape)


@functools.lru_cache(maxsize=128)
def _tournament_rounds(d: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Round-robin schedule of all pairs ``p < q`` of ``range(d)``, as index arrays.

    ``d`` is rounded up to an even ``n``; the ``n - 1`` rounds each hold
    ``n / 2`` disjoint pairs (circle method: index ``n - 1`` stays put while
    the others turn one seat per round). A pair holding the padding index
    ``d`` (odd ``d`` only) is dropped. The arrays are read-only because
    every caller shares them.
    """
    n = d + d % 2
    rounds = []
    for r in range(n - 1):
        seats = [(r, n - 1)] + [((r + i) % (n - 1), (r - i) % (n - 1)) for i in range(1, n // 2)]
        pairs = sorted((min(x, y), max(x, y)) for x, y in seats if max(x, y) < d)
        p = np.array([x for x, _ in pairs], dtype=np.intp)
        q = np.array([y for _, y in pairs], dtype=np.intp)
        p.setflags(write=False)
        q.setflags(write=False)
        rounds.append((p, q))
    return tuple(rounds)


def _cyclic_sweep(a: np.ndarray, v: np.ndarray, thr: float) -> int:
    """One row-cyclic sweep, one rotation at a time; returns the rotations applied."""
    d = a.shape[0]
    applied = 0
    for p in range(d - 1):
        for q in range(p + 1, d):
            m = a[p, q]
            beta = abs(m)
            if beta <= thr:
                continue
            app = a[p, p].real
            aqq = a[q, q].real
            tau = (aqq - app) / (2.0 * beta)
            t = 1.0 / (abs(tau) + np.sqrt(1.0 + tau * tau))
            if tau < 0.0:
                t = -t
            c = 1.0 / np.sqrt(1.0 + t * t)
            sc = (t * c) * (m / beta)
            csc = np.conj(sc)
            col_p = a[:, p].copy()
            col_q = a[:, q].copy()
            a[:, p] = c * col_p - csc * col_q
            a[:, q] = sc * col_p + c * col_q
            row_p = a[p, :].copy()
            row_q = a[q, :].copy()
            a[p, :] = c * row_p - sc * row_q
            a[q, :] = csc * row_p + c * row_q
            # the 2x2 core is known in closed form; writing it back
            # kills the rounding drift of the slice updates
            a[p, p] = app - t * beta
            a[q, q] = aqq + t * beta
            a[p, q] = 0.0
            a[q, p] = 0.0
            vp = v[p, :].copy()
            vq = v[q, :].copy()
            v[p, :] = c * vp - sc * vq
            v[q, :] = csc * vp + c * vq
            applied += 1
    return applied


def _stacked_sweep(a: np.ndarray, v: np.ndarray, thr):
    """One round-robin sweep of a matrix, or of every matrix in a stack; returns the rotations applied.

    ``a`` and ``v`` are an ``(n, n)`` matrix and its row eigenvectors so
    far, with a float ``thr``, or ``(m, n, n)`` stacks of both, with one
    threshold per matrix; the count is an int or one per matrix to match.
    Same rotation and core write-back as ``_cyclic_sweep``. The rotations
    of one round touch disjoint row and column pairs of their matrix, so
    they commute and none reads an entry another writes: applying all
    column updates, then all row updates, equals applying the rotations one
    after another. A round indexes only the (matrix, pair) rotations above
    their matrix's threshold and touches no other entry.
    """
    # i picks each rotation's matrix; for a lone matrix it is ..., so that
    # a[i, p, q] is a[p, q]
    lone = a.ndim == 2
    if not lone:
        everyone = np.arange(len(a))[:, None]
        thr = thr[:, None]
    full, parts = 0, []
    for p, q in _tournament_rounds(a.shape[-1]):
        m = a[..., p, q]
        beta = np.abs(m)
        live = beta > thr
        if live.all():
            i = ... if lone else everyone
            full += p.size
        else:
            if not live.any():
                continue
            where = live.nonzero()
            i = ... if lone else where[0]
            p, q, m, beta = p[where[-1]], q[where[-1]], m[live], beta[live]
            parts.append(where[0])
        app = a[i, p, p].real
        aqq = a[i, q, q].real
        tau = (aqq - app) / (2.0 * beta)
        # t takes the sign of tau; adding 0.0 turns a tau of -0.0 into +0.0
        t = np.copysign(1.0 / (np.abs(tau) + np.sqrt(1.0 + tau * tau)), tau + 0.0)
        c = 1.0 / np.sqrt(1.0 + t * t)
        sc = (t * c) * (m / beta)
        csc = np.conj(sc)
        # a lone matrix's gathered columns are (n, pairs), a stack's (rotations, n)
        c_r, sc_r, csc_r = c[..., None], sc[..., None], csc[..., None]
        c_c, sc_c, csc_c = (c, sc, csc) if lone else (c_r, sc_r, csc_r)
        col_p = a[i, :, p]
        col_q = a[i, :, q]
        a[i, :, p] = c_c * col_p - csc_c * col_q
        a[i, :, q] = sc_c * col_p + c_c * col_q
        row_p = a[i, p, :]
        row_q = a[i, q, :]
        a[i, p, :] = c_r * row_p - sc_r * row_q
        a[i, q, :] = csc_r * row_p + c_r * row_q
        shift = t * beta
        a[i, p, p] = app - shift
        a[i, q, q] = aqq + shift
        a[i, p, q] = 0.0
        a[i, q, p] = 0.0
        vp = v[i, p, :]
        vq = v[i, q, :]
        v[i, p, :] = c_r * vp - sc_r * vq
        v[i, q, :] = csc_r * vp + c_r * vq
    if lone:
        return full + sum(map(len, parts))
    applied = np.full(len(a), full)
    if parts:
        applied += np.bincount(np.concatenate(parts), minlength=len(a))
    return applied


def _square_matrices(matrix) -> tuple[list, bool]:
    """The matrices of a call, and whether it was given one matrix rather than a sequence.

    A sequence is a nonempty list or tuple whose items are 2-d.
    """
    lone = not (isinstance(matrix, (list, tuple)) and matrix and all(np.ndim(m) == 2 for m in matrix))
    return [_square_complex(m) for m in ([matrix] if lone else matrix)], lone


def _which(i, count) -> str:
    """How errors name matrix i of a solve of count matrices."""
    return "matrix" if count == 1 else f"matrix {i} of the stack"


def _solve_stats(d, tournament, sweeps, rotations, off, target, e) -> str:
    # the norms are reported in the units of the input, not of the scaled block
    with np.errstate(over="ignore"):
        off, target = np.ldexp(off, e), np.ldexp(target, e)
    ordering = "tournament" if tournament else "cyclic"
    return (
        f"d={d}, {ordering} ordering, {sweeps} sweeps, {rotations} rotations, "
        f"off-diagonal norm {off:.3e} (target {target:.3e})"
    )


def eig_hermitian(matrix, tol: float = 1e-12):
    """Diagonalize a Hermitian matrix, or many in one stacked solve, by complex Jacobi rotations.

    Parameters
    ----------
    matrix : (d, d) array_like, or a sequence of them
        Hermitian up to ``tol * max|entry|`` in entrywise distance. A
        sequence (a list or tuple of 2-d arrays) is solved in one stacked
        call; its matrices may differ in order.
    tol : float
        Also sets the sweep target: rotations stop once the off-diagonal
        Frobenius mass drops below ``tol * frobenius(matrix)``. At most
        ``MAX_SWEEPS`` sweeps are attempted.

    Returns
    -------
    HermitianEig, or a list of one per matrix of a sequence
        Descending eigenvalues and a unitary matrix of row eigenvectors.
        Ties keep the sweep order (stable sort); each row's phase is fixed
        by making its first sizable component real positive, so the output
        is deterministic for a fixed input.

    Notes
    -----
    The block is first scaled by the power of two that brings its largest
    entry into ``[1/2, 1)``, and the values are scaled back, both exactly,
    so no squared entry under- or overflows and ``eig_hermitian(2**k * A)``
    returns ``2**k`` times the values of ``A``. A lone matrix of order
    ``_TOURNAMENT_MIN_ORDER`` and up sweeps in round-robin order, a round
    of disjoint rotations per numpy step; a smaller one sweeps
    row-cyclically, where per-call overhead outweighs the vectorization.
    A sequence always sweeps in round-robin order. Each of its matrices
    keeps its own prescale, threshold, target, convergence, sort and phase
    rule: its result does not depend on its neighbours beyond round-off,
    and not at all when they all have the same order (design notes,
    "Stacked solves"). One DEBUG record per matrix on the ``moddiag.eigen``
    logger reports its sweeps, rotations and final off-diagonal norm;
    NotHermitianError and ConvergenceError name the failing matrices.
    """
    mats, lone = _square_matrices(matrix)
    dims = [len(m) for m in mats]
    count, n = len(mats), max(dims)
    if min(dims) == n:
        h = np.array(mats)
    else:
        # zero padding is exact (design notes, "Stacked solves")
        h = np.zeros((count, n, n), dtype=np.complex128)
        for pad, m in zip(h, mats):
            pad[: len(m), : len(m)] = m
    bad = _hermitian_defect([h]) > tol
    if bad.any():
        raise NotHermitianError(f"{_which(np.argmax(bad), count)} is not Hermitian within tolerance")

    e = np.frexp(np.abs(h).max(axis=(1, 2)))[1]
    a = _times_power_of_two(h, -e[:, None, None])
    del h  # the stack is symmetrized in place, with no second copy alive
    a += a.conj().swapaxes(1, 2)
    a *= 0.5
    v = np.zeros_like(a)
    v.reshape(count, -1)[:, :: n + 1] = 1.0

    tournament = count > 1 or n >= _TOURNAMENT_MIN_ORDER
    frob = np.sqrt((np.abs(a) ** 2).reshape(count, -1).sum(axis=1))
    target = max(tol, 1e-14) * frob
    thr = target / (2.0 * np.array(dims))
    off = _offdiag_norm(a)
    sweeps = np.zeros(count, dtype=int)
    rotations = np.zeros(count, dtype=int)
    sweep = _stacked_sweep if tournament else _cyclic_sweep
    # a lone matrix sweeps as a matrix, which indexes faster than a stack of one
    every = (a[0], v[0], thr[0]) if count == 1 else (a, v, thr)
    for _ in range(MAX_SWEEPS):
        active = off > target
        if not active.any():
            break
        # a converged matrix sits out: no pair passes an infinite threshold
        thr[~active] = np.inf
        rotations += sweep(*every)
        sweeps += active
        off = _offdiag_norm(a)

    failed = off > target
    if failed.any() or _log.isEnabledFor(logging.DEBUG):
        stats = [
            _solve_stats(d, tournament, *args)
            for d, *args in zip(dims, sweeps, rotations, off, target, e)
        ]
        if count > 1:
            stats = [f"matrix {i} of {count}: {s}" for i, s in enumerate(stats)]
        if failed.any():
            described = "; ".join(s for s, f in zip(stats, failed) if f)
            raise ConvergenceError(f"Jacobi did not converge: {described}")
        for s in stats:
            _log.debug("eig_hermitian %s", s)

    # a copy of the diagonal, so the rotated stack is freed before the sort
    vals = np.real(np.diagonal(a, axis1=1, axis2=2)).copy()
    del a, every
    if min(dims) < n:
        for row, d in zip(vals, dims):
            row[d:] = -np.inf  # padding sorts last
    order = np.argsort(-vals, axis=1, kind="stable")
    rows = np.arange(count)[:, None]
    values = np.ldexp(vals[rows, order], e[:, None])
    vectors = _fix_row_phases(v[rows, order])
    out = [HermitianEig(values[i, :d], vectors[i, :d, :d]) for i, d in enumerate(dims)]
    return out[0] if lone else out


def eig_normal(matrix, tol: float = 1e-10):
    """Diagonalize a normal matrix, or many in two stacked Hermitian solves.

    Splits N into its Hermitian part H and skew part S (both Hermitian,
    commuting exactly when N is normal), diagonalizes H, then diagonalizes
    the compression of S inside every eigenspace of H. One `eig_hermitian`
    call solves the Hermitian parts of all matrices of a sequence, and one
    more the compressions in every run of all of them.

    Returns ``(values, vectors)``, or a list of one per matrix of a
    sequence, with complex values sorted by descending real part and row
    eigenvectors forming a unitary, so ``vectors @ N @ vectors.conj().T``
    is diagonal. Real parts that chain together in steps of at most
    ``max(tol, 1e-12) * max|entry|`` count as tied, and descending
    imaginary part breaks the tie. Where a matrix has two or more such
    runs, they are solved as a stack: its values may differ in the last
    bits from those of solving each run alone.

    N counts as normal when the largest entry of ``N N* - N* N`` is at most
    ``tol * max|entry|**2``, and the diagonalized form must leave no
    off-diagonal entry above ``10 * max(tol, 1e-12) * max|entry|``; both
    bounds are relative, so neither passes a small non-normal matrix.
    """
    mats, lone = _square_matrices(matrix)
    for i, m in enumerate(mats):
        if _normality_defect([m]) > tol:
            raise NotNormalError(f"{_which(i, len(mats))} is not normal within tolerance")
    bases = eig_hermitian([0.5 * (m + m.conj().T) for m in mats], 1e-12)

    vecs, clusters, runs = [], [], []
    for m, base in zip(mats, bases):
        vec = np.array(base.vectors)
        hv = base.values
        d = len(m)
        skew = (m - m.conj().T) / 2j
        # relative to N itself, so the runs (and the output order) do not
        # depend on its units, and a skew-Hermitian N, whose H is round-off,
        # is one run
        gap = max(tol, 1e-12) * float(np.abs(m).max())
        # cluster[r] is the first row of the run of Hermitian-part eigenvalues
        # within ``gap`` of each other that row r belongs to; it orders the
        # output, so round-off in tied real parts cannot
        cluster = np.empty(d, dtype=np.intp)
        start = 0
        while start < d:
            stop = start + 1
            while stop < d and hv[stop - 1] - hv[stop] <= gap:
                stop += 1
            cluster[start:stop] = start
            if stop - start > 1:
                sub = vec[start:stop]
                comp = sub @ skew @ sub.conj().T
                runs.append((vec, start, stop, 0.5 * (comp + comp.conj().T)))
            start = stop
        vecs.append(vec)
        clusters.append(cluster)

    if runs:
        refines = eig_hermitian([comp for *_, comp in runs], 1e-12)
        for (vec, start, stop, _), refine in zip(runs, refines):
            vec[start:stop] = refine.vectors @ vec[start:stop]

    out = []
    for i, (m, vec, cluster) in enumerate(zip(mats, vecs, clusters)):
        n_ = vec @ m @ vec.conj().T
        values = np.diag(n_).copy()
        resid = float(np.abs(n_ - np.diag(values)).max())
        if resid > 10.0 * max(tol, 1e-12) * float(np.abs(m).max()):
            raise NotNormalError(
                f"{_which(i, len(mats))} could not be diagonalized to tolerance; it is either "
                "not normal or has nearly degenerate Hermitian-part eigenvalues"
            )
        order = np.lexsort((-values.imag, cluster))
        out.append((values[order], _fix_row_phases(vec[order])))
    return out[0] if lone else out
