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
    top = np.max([np.abs(m).max(axis=(-2, -1)) for m in mats], axis=0)
    defect = np.max([np.abs(m - m.conj().swapaxes(-2, -1)).max(axis=(-2, -1)) for m in mats], axis=0)
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


def _offdiag_norm(a: np.ndarray) -> float:
    # summing the masked entries avoids the cancellation of total minus
    # diagonal, which floors near sqrt(eps) * frobenius and never converges
    off = np.abs(a) ** 2
    np.fill_diagonal(off, 0.0)
    return float(np.sqrt(off.sum()))


def _fix_row_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each row so its first sizable entry lands on the positive real axis."""
    out = np.array(vectors)
    for r in range(out.shape[0]):
        mags = np.abs(out[r])
        top = mags.max()
        if top == 0.0:
            continue
        lead = int(np.argmax(mags > 1e-8 * top))
        pivot = out[r, lead]
        out[r] *= np.conj(pivot) / abs(pivot)
    return out


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


def _tournament_sweep(a: np.ndarray, v: np.ndarray, thr: float) -> int:
    """One sweep in round-robin order, a round of disjoint rotations per step.

    Same rotation and core write-back as ``_cyclic_sweep``. The rotations
    of one round touch disjoint row and column pairs, so they commute and
    none reads an entry another writes: applying all column updates, then
    all row updates, equals applying the rotations one after another.
    Returns the rotations applied.
    """
    applied = 0
    for p, q in _tournament_rounds(a.shape[0]):
        m = a[p, q]
        beta = np.abs(m)
        live = beta > thr
        if not live.all():
            if not live.any():
                continue
            p, q, m, beta = p[live], q[live], m[live], beta[live]
        app = a[p, p].real
        aqq = a[q, q].real
        tau = (aqq - app) / (2.0 * beta)
        t = 1.0 / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
        t = np.where(tau < 0.0, -t, t)
        c = 1.0 / np.sqrt(1.0 + t * t)
        sc = (t * c) * (m / beta)
        csc = np.conj(sc)
        col_p = a[:, p]
        col_q = a[:, q]
        a[:, p] = c * col_p - csc * col_q
        a[:, q] = sc * col_p + c * col_q
        c_r, sc_r, csc_r = c[:, None], sc[:, None], csc[:, None]
        row_p = a[p, :]
        row_q = a[q, :]
        a[p, :] = c_r * row_p - sc_r * row_q
        a[q, :] = csc_r * row_p + c_r * row_q
        a[p, p] = app - t * beta
        a[q, q] = aqq + t * beta
        a[p, q] = 0.0
        a[q, p] = 0.0
        vp = v[p, :]
        vq = v[q, :]
        v[p, :] = c_r * vp - sc_r * vq
        v[q, :] = csc_r * vp + c_r * vq
        applied += p.size
    return applied


def _solve_stats(d, tournament, sweeps, rotations, off, target, e) -> str:
    # the norms are reported in the units of the input, not of the scaled block
    with np.errstate(over="ignore"):
        off, target = np.ldexp(off, e), np.ldexp(target, e)
    ordering = "tournament" if tournament else "cyclic"
    return (
        f"d={d}, {ordering} ordering, {sweeps} sweeps, {rotations} rotations, "
        f"off-diagonal norm {off:.3e} (target {target:.3e})"
    )


def eig_hermitian(matrix, tol: float = 1e-12) -> HermitianEig:
    """Diagonalize a Hermitian matrix by complex Jacobi rotations.

    Parameters
    ----------
    matrix : (d, d) array_like
        Hermitian up to ``tol * max|entry|`` in entrywise distance.
    tol : float
        Also sets the sweep target: rotations stop once the off-diagonal
        Frobenius mass drops below ``tol * frobenius(matrix)``. At most
        ``MAX_SWEEPS`` sweeps are attempted.

    Returns
    -------
    HermitianEig
        Descending eigenvalues and a unitary matrix of row eigenvectors.
        Ties keep the sweep order (stable sort); each row's phase is fixed
        by making its first sizable component real positive, so the output
        is deterministic for a fixed input.

    Notes
    -----
    The block is first scaled by the power of two that brings its largest
    entry into ``[1/2, 1)``, and the values are scaled back, both exactly,
    so no squared entry under- or overflows and ``eig_hermitian(2**k * A)``
    returns ``2**k`` times the values of ``A``. Blocks of order
    ``_TOURNAMENT_MIN_ORDER`` and up sweep in round-robin order, a round of
    disjoint rotations per numpy step; smaller ones sweep row-cyclically,
    where per-call overhead outweighs the vectorization. One DEBUG record
    on the ``moddiag.eigen`` logger reports each call's sweeps, rotations
    and final off-diagonal norm.
    """
    h = _square_complex(matrix)
    if _hermitian_defect([h]) > tol:
        raise NotHermitianError("matrix is not Hermitian within tolerance")
    d = h.shape[0]
    v = np.eye(d, dtype=np.complex128)
    if d == 1:
        _log.debug("eig_hermitian d=1, no rotation needed")
        return HermitianEig(np.array([h[0, 0].real]), v)

    e = math.frexp(float(np.abs(h).max()))[1]
    a = _times_power_of_two(h, -e)
    a = 0.5 * (a + a.conj().T)

    tournament = d >= _TOURNAMENT_MIN_ORDER
    sweep = _tournament_sweep if tournament else _cyclic_sweep
    frob = float(np.sqrt((np.abs(a) ** 2).sum()))
    target = max(tol, 1e-14) * frob
    thr = target / (2.0 * d)
    off = _offdiag_norm(a)
    sweeps = rotations = 0
    while off > target and sweeps < MAX_SWEEPS:
        rotations += sweep(a, v, thr)
        sweeps += 1
        off = _offdiag_norm(a)
    if off > target:
        stats = _solve_stats(d, tournament, sweeps, rotations, off, target, e)
        raise ConvergenceError(f"Jacobi did not converge: {stats}")
    if _log.isEnabledFor(logging.DEBUG):
        stats = _solve_stats(d, tournament, sweeps, rotations, off, target, e)
        _log.debug("eig_hermitian %s", stats)

    vals = np.real(np.diag(a)).copy()
    order = np.argsort(-vals, kind="stable")
    values = np.ldexp(vals[order], e)
    vectors = _fix_row_phases(v[order])
    return HermitianEig(values, vectors)


def eig_normal(matrix, tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize a normal matrix.

    Splits N into its Hermitian part H and skew part S (both Hermitian,
    commuting exactly when N is normal), diagonalizes H, then diagonalizes
    the compression of S inside every eigenspace of H.

    Returns ``(values, vectors)`` with complex values sorted by descending
    real part and row eigenvectors forming a unitary, so
    ``vectors @ N @ vectors.conj().T`` is diagonal. Real parts that chain
    together in steps of at most ``max(tol, 1e-12) * max|entry|`` count as
    tied, and descending imaginary part breaks the tie.

    N counts as normal when the largest entry of ``N N* - N* N`` is at most
    ``tol * max|entry|**2``, and the diagonalized form must leave no
    off-diagonal entry above ``10 * max(tol, 1e-12) * max|entry|``; both
    bounds are relative, so neither passes a small non-normal matrix.
    """
    n_ = _square_complex(matrix)
    scale = float(np.abs(n_).max())
    if _normality_defect([n_]) > tol:
        raise NotNormalError("matrix is not normal within tolerance")

    herm = 0.5 * (n_ + n_.conj().T)
    skew = (n_ - n_.conj().T) / 2j
    base = eig_hermitian(herm)
    vec = np.array(base.vectors)
    hv = base.values
    d = n_.shape[0]

    # relative to N itself, so the runs (and the output order) do not depend
    # on its units, and a skew-Hermitian N, whose H is round-off, is one run
    gap = max(tol, 1e-12) * scale
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
            comp = 0.5 * (comp + comp.conj().T)
            refine = eig_hermitian(comp)
            vec[start:stop] = refine.vectors @ sub
        start = stop

    m = vec @ n_ @ vec.conj().T
    values = np.diag(m).copy()
    resid = float(np.abs(m - np.diag(values)).max())
    if resid > 10.0 * max(tol, 1e-12) * scale:
        raise NotNormalError(
            "matrix could not be diagonalized to tolerance; it is either "
            "not normal or has nearly degenerate Hermitian-part eigenvalues"
        )
    order = np.lexsort((-values.imag, cluster))
    values = values[order]
    vectors = _fix_row_phases(vec[order])
    return values, vectors
