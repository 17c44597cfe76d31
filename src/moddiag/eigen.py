"""Dense complex Hermitian and normal eigensolvers.

Two self-contained kernels behind one entry point: complex Jacobi
rotations for small or sparse matrices, and Householder tridiagonalization
with Sturm bisection and inverse iteration for dense ones of order 16 and
up. Every spectral computation in this package funnels through the two
entry points below, which keeps accuracy and tie-breaking behaviour in one
place. numpy does the arithmetic; it computes no eigenvalue.
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

_log = logging.getLogger(__name__)


class ConvergenceError(RuntimeError):
    """An eigensolver kernel missed its convergence target."""


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


def _zero_padded(arrays, rows: int, cols: int) -> tuple:
    """``(stack, padded)``: the arrays stacked, each zero-padded to ``(rows, cols)`` in its last two axes.

    The arrays share their leading axes; a product or sum of padded
    matrices holds the unpadded one in its top left corner and zeros
    elsewhere. padded, ``(len(arrays), cols)`` bool, marks the columns that
    padding added. A lone array that needs no padding comes back as a view.
    """
    padded = np.arange(cols) >= np.array([np.shape(a)[-1] for a in arrays])[:, None]
    if len(arrays) == 1 and np.shape(arrays[0])[-2:] == (rows, cols):
        return np.asarray(arrays[0], dtype=np.complex128)[None], padded
    out = np.zeros((len(arrays),) + np.shape(arrays[0])[:-2] + (rows, cols), dtype=np.complex128)
    for o, a in zip(out, arrays):
        o[..., : np.shape(a)[-2], : np.shape(a)[-1]] = a
    return out, padded


def _hermitian_defect(mats):
    """Largest entry of ``M - M*`` over mats, relative to the largest entry of any.

    0 when all vanish. The mats may also be stacks ``(p, k, k)`` with one p,
    the blocks of p elements: the defect is then one per element.
    """
    top = functools.reduce(np.maximum, [np.abs(m).max(axis=(-2, -1)) for m in mats])
    defect = functools.reduce(np.maximum, [np.abs(m - m.conj().swapaxes(-2, -1)).max(axis=(-2, -1)) for m in mats])
    return defect / np.maximum(top, math.ulp(0.0))  # where top is 0 so is defect


def _normality_defect(m) -> float:
    """Largest entry of ``N N* - N* N``, relative to the largest entry of N squared.

    N is first scaled by the power of two that brings its largest entry
    into ``[1/2, 1)``, so the products neither under- nor overflow and the
    ratio does not depend on the units. 0 when N vanishes.
    """
    top = float(np.abs(m).max())
    if top == 0.0:
        return 0.0
    e = math.frexp(top)[1]
    n = _times_power_of_two(m, -e)
    nh = n.conj().T
    return float(np.abs(n @ nh - nh @ n).max()) / math.ldexp(top, -e) ** 2


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


def _stacked_sweep(av: np.ndarray, thr: np.ndarray) -> np.ndarray:
    """One round-robin sweep of every matrix in a stack; returns the rotations applied to each.

    ``av`` is an ``(m, n, 2n)`` stack: each matrix, then beside it its row
    eigenvectors so far; ``thr`` holds one threshold per matrix. The
    rotations of one round touch disjoint row and column pairs of their
    matrix, so they commute and none reads an entry another writes:
    applying all column updates, then all row updates, equals applying the
    rotations one after another. A round indexes only the (matrix, pair)
    rotations above their matrix's threshold and touches no other entry.
    """
    a = av[..., : av.shape[1]]
    # the columns of a are the rows of its transpose, so one gather shape,
    # (rotations, row length), serves the column and the row updates
    at = a.swapaxes(1, 2)
    thr = thr[:, None]
    parts = []
    for p, q in _tournament_rounds(a.shape[-1]):
        m = a[:, p, q]
        beta = np.abs(m)
        live = beta > thr
        if not live.any():
            continue
        i, pair = live.nonzero()
        p, q, m, beta = p[pair], q[pair], m[live], beta[live]
        parts.append(i)
        app = a[i, p, p].real
        aqq = a[i, q, q].real
        tau = (aqq - app) / (2.0 * beta)
        # t takes the sign of tau; adding 0.0 turns a tau of -0.0 into +0.0
        t = np.copysign(1.0 / (np.abs(tau) + np.sqrt(1.0 + tau * tau)), tau + 0.0)
        c = 1.0 / np.sqrt(1.0 + t * t)
        sc = (t * c) * (m / beta)
        c, sc, csc = c[..., None], sc[..., None], np.conj(sc)[..., None]
        col_p = at[i, p]
        col_q = at[i, q]
        at[i, p] = c * col_p - csc * col_q
        at[i, q] = sc * col_p + c * col_q
        row_p = av[i, p]
        row_q = av[i, q]
        av[i, p] = c * row_p - sc * row_q
        av[i, q] = csc * row_p + c * row_q
        # the 2x2 core is known in closed form; writing it back kills the
        # rounding drift of the slice updates
        shift = t * beta
        a[i, p, p] = app - shift
        a[i, q, q] = aqq + shift
        a[i, p, q] = 0.0
        a[i, q, p] = 0.0
    return np.bincount(np.concatenate(parts), minlength=len(a)) if parts else np.zeros(len(a), dtype=np.intp)


def _square_matrices(matrices) -> list:
    """The matrices of a call: a nonempty list or tuple of square 2-d arrays."""
    if not (isinstance(matrices, (list, tuple)) and matrices and all(np.ndim(m) == 2 for m in matrices)):
        raise ValueError("expected a nonempty list or tuple of square matrices")
    return [_square_complex(m) for m in matrices]


def _jacobi(h, padded, target, thr) -> tuple:
    """Sweep a padded stack until each matrix's off-diagonal mass meets its target.

    thr holds each matrix's rotation threshold: a pair rotates when its
    coupling exceeds it. Returns each matrix's values, descending with the
    padding last, its row eigenvectors in the same order, its counts of
    sweeps and rotations as a pair of ints, and its final off-diagonal
    norm (design notes, "The Jacobi sweep").
    """
    count, n = h.shape[:2]
    # each matrix's eigenvector rows sit beside its rows, so one row
    # rotation of av turns both
    av = np.zeros((count, n, 2 * n), dtype=np.complex128)
    a, v = av[..., :n], av[..., n:]
    a[...] = h
    v[:, range(n), range(n)] = 1.0
    del h
    thr = thr.copy()  # a converged matrix's threshold is masked below
    off = _offdiag_norm(a)
    sweeps, rotations = np.zeros((2, count), dtype=int)
    for _ in range(MAX_SWEEPS):
        active = off > target
        if not active.any():
            break
        # a converged matrix sits out: no pair passes an infinite threshold
        thr[~active] = np.inf
        rotations += _stacked_sweep(av, thr)
        sweeps += active
        off = _offdiag_norm(a)

    vals = np.real(np.diagonal(a, axis1=1, axis2=2)).copy()
    vals[padded] = -np.inf  # padding sorts last
    order = np.argsort(-vals, axis=1, kind="stable")
    rows = np.arange(count)[:, None]
    return vals[rows, order], v[rows, order], list(zip(sweeps.tolist(), rotations.tolist())), off


def _tridiagonal_wins(mag, dims, thr) -> np.ndarray:
    """Whether each matrix of a scaled stack goes to the tridiagonal kernel rather than to Jacobi.

    mag holds the moduli of the entries. A matrix goes there when its order
    is at least 16 and it has at least d couplings (pairs ``p < q``) above
    thr, Jacobi's rotation threshold: below either, Jacobi's
    sweeps are few or short and it wins (design notes, "The tridiagonal
    kernel").
    """
    large = dims >= 16
    if not large.any():  # the common small call skips the count
        return large
    live = mag > thr[:, None, None]
    # each pair is counted twice, once in each triangle
    twice = np.count_nonzero(live, axis=(1, 2)) - np.count_nonzero(np.diagonal(live, axis1=1, axis2=2), axis=1)
    return large & (twice >= 2 * dims)


def eig_hermitian(matrices, tol: float = 1e-12):
    """Diagonalize Hermitian matrices in one stacked call, by Jacobi rotations or by a tridiagonal kernel.

    Parameters
    ----------
    matrices : nonempty list or tuple of (d, d) array_like
        Each Hermitian up to ``tol * max|entry|`` in entrywise distance.
        They are solved in one call and may differ in order. A bare matrix
        or a 3-d array raises ValueError.
    tol : float
        Also sets each matrix's target, ``tol * frobenius(matrix)``: Jacobi
        rotates until the off-diagonal Frobenius mass drops below it, in
        at most ``MAX_SWEEPS`` sweeps; inverse iteration steps until the
        Frobenius norm of the residuals ``T z - lambda z`` does.

    Returns
    -------
    list of HermitianEig, one per matrix
        Descending eigenvalues and a unitary matrix of row eigenvectors.
        Ties keep the kernel's order (stable sort); each row's phase is
        fixed by making its first sizable component real positive, so the
        output is deterministic for a fixed input.

    Notes
    -----
    The block is first scaled by the power of two that brings its largest
    entry into ``[1/2, 1)``, and the values are scaled back, both exactly,
    so no squared entry under- or overflows and ``eig_hermitian(2**k * A)``
    returns ``2**k`` times the values of ``A``. Each matrix then goes to
    one of two kernels by its order and its count of couplings above
    Jacobi's rotation threshold (design notes, "The tridiagonal kernel").
    Jacobi sweeps the sparse and the small ones in one padded stack, in
    round-robin order, a round of disjoint rotations per numpy step. The
    dense ones of order 16 and up are reduced to tridiagonal form by
    Householder reflectors, and their eigenvalues found by Sturm bisection
    and their eigenvectors by inverse iteration, in one stack per order.
    Each matrix keeps its own prescale, target, convergence, sort and
    phase rule: its result does not depend on its neighbours beyond
    round-off, and not at all when they all have the same order, so it
    equals a call with that matrix alone bit for bit (design notes, "The
    Jacobi sweep"). One DEBUG record per matrix on the ``moddiag.eigen``
    logger reports its kernel's figures; NotHermitianError and
    ConvergenceError name the failing matrices.
    """
    mats = _square_matrices(matrices)
    dims = np.array([len(m) for m in mats])
    count, n = len(mats), int(dims.max())
    # zero padding is exact (design notes, "The Jacobi sweep")
    h, padded = _zero_padded(mats, n, n)
    bad = _hermitian_defect([h]) > tol
    if bad.any():
        raise NotHermitianError(f"matrix {np.argmax(bad)} of the stack is not Hermitian within tolerance")

    e = np.frexp(np.abs(h).max(axis=(1, 2)))[1]
    h = _times_power_of_two(h, -e[:, None, None])
    h += h.conj().swapaxes(1, 2)
    h *= 0.5
    mag = np.abs(h)
    target = max(tol, 1e-14) * np.sqrt((mag**2).reshape(count, -1).sum(axis=1))
    # Jacobi's rotation threshold, which also routes a matrix between the kernels
    thr = target / (2.0 * dims)
    dense = _tridiagonal_wins(mag, dims, thr)
    del mag
    # the Jacobi matrices share one padded stack, the others one stack per
    # order; a group of every matrix indexes the stack by a slice, so its
    # stack is a view, not a copy
    if dense.any():
        masks = [~dense] + [dense & (dims == d) for d in sorted(set(dims[dense].tolist()))]
        groups = [slice(None) if m.all() else np.flatnonzero(m) for m in masks if m.any()]
    else:  # the common small call: one Jacobi stack
        groups = [slice(None)]
    orders = [int(dims[group].max()) for group in groups]
    stacks = [h[group, :k, :k] for group, k in zip(groups, orders)]
    del h  # each kernel holds the only reference to its stack and frees it once done
    out, counts, final = [None] * count, [None] * count, np.zeros(count)
    for group, k in zip(groups, orders):
        if dense[group].any():
            # imported on the first dense solve: compiling the module raised
            # the peak memory of a process that never needs it by 0.9 MB
            # (design notes, "The tridiagonal kernel")
            from . import _tridiagonal

            values, vectors, counted, final[group] = _tridiagonal.eigensystems(stacks.pop(0), target[group])
        else:
            values, vectors, counted, final[group] = _jacobi(stacks.pop(0), padded[group, :k], target[group], thr[group])
        values = np.ldexp(values, e[group, None])
        vectors = _fix_row_phases(vectors)
        for j, i in enumerate(np.arange(count)[group].tolist()):
            d = len(mats[i])
            out[i], counts[i] = HermitianEig(values[j, :d], vectors[j, :d, :d]), counted[j]

    failed = ~(final <= target)  # a NaN figure fails too
    if failed.any() or _log.isEnabledFor(logging.DEBUG):
        # the words of each kernel's two counts, as dense indexes them: Jacobi's, then the tridiagonal kernel's
        figures = (
            "{} sweeps, {} rotations, off-diagonal norm",
            "{} bisection rounds, {} inverse-iteration steps, residual",
        )
        # the norms are reported in the units of the input, not of the scaled block
        with np.errstate(over="ignore"):
            final, target = np.ldexp(final, e), np.ldexp(target, e)
        stats = [
            f"matrix {i} of {count}: d={d}, {figures[w].format(*c)} {f:.3e} (target {t:.3e})"
            for i, (d, w, c, f, t) in enumerate(zip(dims.tolist(), dense.tolist(), counts, final, target))
        ]
        if failed.any():
            described = "; ".join(s for s, f in zip(stats, failed) if f)
            raise ConvergenceError(f"eig_hermitian did not converge: {described}")
        for s in stats:
            _log.debug("eig_hermitian %s", s)
    return out


def _tie_runs(descending: np.ndarray, gap: float) -> np.ndarray:
    """Run ids of real values sorted in descending order.

    Neighbours at most ``gap`` apart chain into one run of tied values;
    entry r gets the index of the first entry of its run, so sorting by
    (run id, anything) keeps the runs in descending order.
    """
    return np.maximum.accumulate(np.arange(len(descending)) * np.r_[True, descending[:-1] - descending[1:] > gap])


def eig_normal(matrices, tol: float = 1e-10):
    """Diagonalize normal matrices in two stacked Hermitian solves.

    Splits N into its Hermitian part H and skew part S (both Hermitian,
    commuting exactly when N is normal), diagonalizes H, then diagonalizes
    the compression of S inside every eigenspace of H. One `eig_hermitian`
    call solves the Hermitian parts of all matrices, and one more, when
    some real parts tie, the compressions of all of them.

    Takes a nonempty list or tuple of square 2-d arrays; a bare matrix or a
    3-d array raises ValueError. Returns a list with one ``(values,
    vectors)`` per matrix, with complex values sorted by descending real
    part and row eigenvectors forming a unitary, so
    ``vectors @ N @ vectors.conj().T`` is diagonal. Real parts that chain
    together in steps of at most ``max(tol, 1e-12) * max|entry|`` count as
    tied, and descending imaginary part breaks the tie. S is compressed
    once into the eigenbasis of H, with every entry that couples two runs
    set to zero, so a tied value may differ in the last bits from that of
    solving its run alone.

    N counts as normal when the largest entry of ``N N* - N* N`` is at most
    ``tol * max|entry|**2``, and the diagonalized form must leave no
    off-diagonal entry above ``10 * max(tol, 1e-12) * max|entry|``; both
    bounds are relative, so neither passes a small non-normal matrix.
    """
    mats = _square_matrices(matrices)
    for i, m in enumerate(mats):
        if _normality_defect(m) > tol:
            raise NotNormalError(f"matrix {i} of the stack is not normal within tolerance")
    bases = eig_hermitian([0.5 * (m + m.conj().T) for m in mats], 1e-12)

    vecs = [base.vectors for base in bases]
    clusters, comps = [], []
    for m, (hv, vec) in zip(mats, bases):
        # relative to N itself, so the runs (and the output order) do not
        # depend on its units, and a skew-Hermitian N, whose H is round-off,
        # is one run
        gap = max(tol, 1e-12) * float(np.abs(m).max())
        # the runs of tied Hermitian-part eigenvalues order the output, so
        # round-off in tied real parts cannot
        cluster = _tie_runs(hv, gap)
        comp = vec @ ((m - m.conj().T) / 2j) @ vec.conj().T
        # entries that couple two runs become exact zeros, which Jacobi never
        # rotates (design notes, "Tie order in `eig_normal`")
        comp = np.where(cluster[:, None] == cluster, comp, 0.0)
        comps.append(0.5 * (comp + comp.conj().T))
        clusters.append(cluster)

    if any((c[1:] == c[:-1]).any() for c in clusters):
        refines = eig_hermitian(comps, 1e-12)
        # each refined row lies in one run: the run of its first nonzero entry
        clusters = [c[np.argmax(r.vectors != 0, axis=1)] for c, r in zip(clusters, refines)]
        vecs = [r.vectors @ vec for r, vec in zip(refines, vecs)]

    out = []
    for i, (m, vec, cluster) in enumerate(zip(mats, vecs, clusters)):
        n_ = vec @ m @ vec.conj().T
        values = np.diag(n_).copy()
        resid = float(np.abs(n_ - np.diag(values)).max())
        if resid > 10.0 * max(tol, 1e-12) * float(np.abs(m).max()):
            raise NotNormalError(
                f"matrix {i} of the stack could not be diagonalized to tolerance; it is either "
                "not normal or has nearly degenerate Hermitian-part eigenvalues"
            )
        order = np.lexsort((-values.imag, cluster))
        out.append((values[order], _fix_row_phases(vec[order])))
    return out
