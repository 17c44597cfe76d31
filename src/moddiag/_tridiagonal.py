"""The tridiagonal kernel of ``eigen.eig_hermitian``, for dense Hermitian matrices of order 16 and up.

A stack of matrices of one order is reduced to real symmetric tridiagonal
form by complex Householder reflectors and one diagonal phase scaling; T
is split where a coupling is zero; Sturm multisection finds each
eigenvalue and inverse iteration, vectorized over the eigenvalues, its
eigenvector, which the reflectors map back (Parlett, *The Symmetric
Eigenvalue Problem*, ch. 7; LAPACK ``zhetrd``, ``dstebz``, ``dstein``;
design notes, "The tridiagonal kernel"). ``eigen`` imports this module
on the first matrix it sends here. numpy does the arithmetic; it
computes no eigenvalue.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .eigen import _times_power_of_two

# points per multisection round, and the caps on multisection rounds and
# on inverse-iteration steps
POINTS = 15
MAX_ROUNDS = 64
MAX_INVERSE_STEPS = 4
EPS = np.finfo(np.float64).eps


def phase(z) -> np.ndarray:
    """The unit phase of each complex z, 1 where z is 0.

    z is first brought to modulus about 1 by a power of two, so that a
    subnormal z, whose modulus rounds coarsely, still gets a phase of
    modulus 1 to the last bits.
    """
    e = np.frexp(np.maximum(np.abs(z.real), np.abs(z.imag)))[1]
    t = _times_power_of_two(z[..., None], -e[..., None])[..., 0]  # each z by its own power
    r = np.abs(t)
    s = t / np.where(r > 0.0, r, 1.0)
    s[r == 0.0] = 1.0
    return s


def householder(a) -> tuple:
    """Reduce a stack ``(m, n, n)`` of Hermitian matrices to real tridiagonal form, overwriting it.

    Step k reflects the column below the diagonal, x, onto its first
    entry: ``H = I - beta u u*`` with ``u = x / |x| + s e1`` and
    ``beta = 1 / (1 + |x[0]| / |x|)``, s the phase of ``x[0]``, applied from
    both sides to the trailing block, which leaves ``-s |x|`` below the
    diagonal. A zero x gives beta 0, the identity.
    Returns the diagonal ``(m, n)``; the moduli below it ``(m, n - 1)``;
    the unit phases ``delta`` ``(m, n)`` of one diagonal scaling D with
    ``D* T_c D`` real, T_c the complex tridiagonal; and the reflectors
    ``(u, beta)`` of every step. The rows ``Z^T D* H_(n-3) ... H_0`` then
    diagonalize a when the rows Z^T diagonalize T.
    """
    m, n = a.shape[:2]
    below = np.zeros((m, n - 1))
    phases = np.ones((m, n), dtype=np.complex128)
    reflectors = []
    for k in range(n - 1):
        x = a[:, k + 1 :, k]
        s = phase(x[:, 0])
        if k == n - 2:  # a lone entry is already tridiagonal
            below[:, k], phases[:, k + 1] = np.abs(x[:, 0]), s
            break
        # y is x brought by a power of two to a largest modulus in [1/2, 1),
        # so no square, product or quotient of the reflector leaves the
        # normal range, even for a subnormal x (LAPACK zlarfg)
        e = np.frexp(np.abs(x).max(axis=1))[1]
        y = _times_power_of_two(x, -e[:, None])
        length = np.sqrt((y.real**2 + y.imag**2).sum(axis=1))
        below[:, k], phases[:, k + 1] = np.ldexp(length, e), -s
        nonzero = length > 0.0
        u = y / np.where(nonzero, length, 1.0)[:, None]
        u[:, 0] += s
        beta = np.zeros(m)
        np.divide(length, length + np.abs(y[:, 0]), out=beta, where=nonzero)
        # the trailing block b becomes H b H = b - u q* - q u*
        b = a[:, k + 1 :, k + 1 :]
        p = beta[:, None] * (b @ u[..., None])[..., 0]
        q = p - (0.5 * beta * (u.conj() * p).sum(axis=1))[:, None] * u
        b -= u[:, :, None] * q.conj()[:, None, :]
        b -= q[:, :, None] * u.conj()[:, None, :]
        reflectors.append((u, beta))
    diagonal = np.real(np.diagonal(a, axis1=1, axis2=2)).copy()
    return diagonal, below, np.cumprod(phases, axis=1), reflectors


class Pieces(NamedTuple):
    """Each eigenvalue slot's own copy of the unreduced piece of T it belongs to.

    Slot ``(i, j)`` holds the ``r``-th smallest eigenvalue of the piece of
    matrix i that contains index j, r being j's place in that piece. Its
    copy is T with every entry outside the piece replaced: the diagonal by
    a value above the piece's spectrum, the couplings by 0. All arrays are
    flat over the ``m * n`` slots.
    """

    inside: np.ndarray  # (slots, n) bool, the indices of the slot's piece
    rank: np.ndarray  # (slots,) r
    diagonal: np.ndarray  # (slots, n)
    coupling: np.ndarray  # (slots, n - 1), between indices k and k + 1
    lower: np.ndarray  # (slots,) Gershgorin bounds of the piece
    upper: np.ndarray
    scale: np.ndarray  # (slots,) the matrix's largest modulus of a piece bound


def split(diagonal, below) -> Pieces:
    """Split T where the square of a coupling is subnormal or zero, and give each slot its piece.

    Such a coupling is below ``1.5e-154``, far below the round-off of a
    prescaled matrix, and squares in the subnormal range would slow every
    Sturm count that reads them many times over.
    """
    m, n = diagonal.shape
    below = np.where(below * below < np.finfo(np.float64).tiny, 0.0, below)
    index = np.broadcast_to(np.arange(n), (m, n))
    starts = np.ones((m, n), dtype=bool)
    starts[:, 1:] = below == 0.0
    head = np.maximum.accumulate(np.where(starts, index, 0), axis=1)
    inside = head[:, :, None] == head[:, None, :]
    radius = np.zeros((m, n))
    radius[:, 1:] += below
    radius[:, :-1] += below
    lower = np.where(inside, (diagonal - radius)[:, None, :], np.inf).min(axis=2)
    upper = np.where(inside, (diagonal + radius)[:, None, :], -np.inf).max(axis=2)
    # a piece of zeros has scale 0, so every tolerance is set by the matrix
    scale = np.broadcast_to(np.maximum(np.abs(lower), np.abs(upper)).max(axis=1, keepdims=True), (m, n))
    # Gershgorin holds exactly; the Sturm counts are computed, so widen a little
    lower, upper = lower - 2.1 * n * EPS * scale, upper + 2.1 * n * EPS * scale
    far = np.where(inside, diagonal[:, None, :], (upper + 1.0)[:, :, None])
    coupling = np.where(inside[:, :, 1:], below[:, None, :], 0.0)
    return Pieces(
        inside.reshape(m * n, n),
        (index - head).reshape(-1),
        far.reshape(m * n, n),
        coupling.reshape(m * n, n - 1),
        lower.reshape(-1),
        upper.reshape(-1),
        scale.reshape(-1),
    )


def converged(lo, hi, scale) -> np.ndarray:
    return hi - lo <= 2.0 * EPS * (np.maximum(np.abs(lo), np.abs(hi)) + scale)


def bisect(pieces: Pieces) -> tuple:
    """Each slot's eigenvalue by multisection of its piece's Gershgorin interval.

    A round splits every open interval at ``POINTS`` evenly spaced points
    and keeps the part that holds the slot's eigenvalue; the Sturm count at
    a point is the number of negative pivots of ``T - sigma I`` over the
    piece. IEEE arithmetic makes a zero pivot harmless: the next pivot
    is -inf and the one after it exact. Sixteen parts a round take 13
    rounds from the Gershgorin width to the width of a few ulps, and each
    slot stops on its own. A slot still open after ``MAX_ROUNDS`` rounds,
    which only a T that is not finite leaves open, gets the value NaN.
    Returns the values and the rounds each slot took.
    """
    lo, hi = pieces.lower.copy(), pieces.upper.copy()
    rounds = np.zeros(len(lo), dtype=int)
    fractions = np.arange(1, POINTS + 1) / (POINTS + 1)
    open_ = np.flatnonzero(~converged(lo, hi, pieces.scale))
    # one row per index k, so each step of the loop reads contiguous rows
    diagonal = pieces.diagonal.T.copy()
    squares = np.zeros_like(diagonal)
    squares[1:] = pieces.coupling.T**2
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(MAX_ROUNDS):
            if not open_.size:
                break
            left, right = lo[open_], hi[open_]
            points = left[:, None] + (right - left)[:, None] * fractions
            diagonal_k, squares_k = diagonal[:, open_, None], squares[:, open_, None]
            pivot, quotient = np.ones_like(points), np.empty_like(points)
            negative, counts = np.empty(points.shape, dtype=bool), np.zeros(points.shape, dtype=np.intp)
            for k in range(len(diagonal_k)):
                np.divide(squares_k[k], pivot, out=quotient)
                np.subtract(diagonal_k[k], points, out=pivot)
                np.subtract(pivot, quotient, out=pivot)
                # outside the piece the pivots are positive, or NaN after it
                np.less(pivot, 0.0, out=negative)
                counts += negative
            place = (counts <= pieces.rank[open_, None]).sum(axis=1)
            ends = np.concatenate([left[:, None], points, right[:, None]], axis=1)
            lo[open_] = np.take_along_axis(ends, place[:, None], axis=1)[:, 0]
            hi[open_] = np.take_along_axis(ends, place[:, None] + 1, axis=1)[:, 0]
            rounds[open_] += 1
            open_ = open_[~converged(lo[open_], hi[open_], pieces.scale[open_])]
    values = 0.5 * (lo + hi)
    values[open_] = np.nan
    return values, rounds


class Factors(NamedTuple):
    """LU factors with partial pivoting of each slot's ``T - lambda I`` (LAPACK ``dgttrf``)."""

    swapped: np.ndarray  # (slots, n - 1) whether rows k and k + 1 were exchanged
    multiplier: np.ndarray  # (slots, n - 1)
    diagonal: np.ndarray  # (slots, n) of U
    upper1: np.ndarray  # (slots, n - 1) of U
    upper2: np.ndarray  # (slots, n - 2) of U


def factor(pieces: Pieces, values) -> Factors:
    """Factor every slot's shifted piece in one loop over the order."""
    d = pieces.diagonal - values[:, None]
    slots, n = d.shape
    lower = pieces.coupling
    u1 = pieces.coupling.copy()
    u2 = np.zeros((slots, max(n - 2, 0)))
    swapped = np.zeros(lower.shape, dtype=bool)
    multiplier = np.zeros_like(lower)
    for k in range(n - 1):
        sw = np.abs(lower[:, k]) > np.abs(d[:, k])
        swapped[:, k] = sw
        top, bottom = np.where(sw, lower[:, k], d[:, k]), np.where(sw, d[:, k], lower[:, k])
        # a zero column (top 0, so bottom 0) needs no elimination
        f = bottom / np.where(top == 0.0, 1.0, top)
        multiplier[:, k] = f
        nxt, up = d[:, k + 1].copy(), u1[:, k].copy()
        d[:, k] = top
        u1[:, k] = np.where(sw, nxt, up)
        d[:, k + 1] = np.where(sw, up - f * nxt, nxt - f * up)
        if k < n - 2:
            up2 = u1[:, k + 1].copy()
            u2[:, k] = np.where(sw, up2, 0.0)
            u1[:, k + 1] = np.where(sw, -f * up2, up2)
    # a pivot below eps ||T|| is raised to it, keeping its sign (LAPACK dlagts)
    floor = (EPS * pieces.scale + np.finfo(np.float64).tiny)[:, None]
    d = np.where(np.abs(d) < floor, np.copysign(floor, d), d)
    return Factors(swapped, multiplier, d, u1, u2)


def solve(f: Factors, y) -> np.ndarray:
    """``(T - lambda I)^-1 y`` for every slot of f, each a row of y."""
    y = y.copy()
    n = y.shape[1]
    for k in range(n - 1):
        sw, m = f.swapped[:, k], f.multiplier[:, k]
        a, b = y[:, k].copy(), y[:, k + 1].copy()
        y[:, k] = np.where(sw, b, a)
        y[:, k + 1] = np.where(sw, a - m * b, b - m * a)
    x = np.zeros_like(y)
    for k in range(n - 1, -1, -1):
        r = y[:, k]
        if k < n - 1:
            r = r - f.upper1[:, k] * x[:, k + 1]
        if k < n - 2:
            r = r - f.upper2[:, k] * x[:, k + 2]
        x[:, k] = r / f.diagonal[:, k]
    return x


def cluster_slots(pieces: Pieces, values) -> list:
    """The slots of each cluster of two or more, as ``(matrices (c,), slots (c, size))`` per size.

    A cluster is a run of slots of one piece whose neighbouring values lie
    within ``1e-3`` of the matrix's scale, as LAPACK ``dstein`` has it.
    """
    n = pieces.diagonal.shape[1]
    ends = np.ones(len(values), dtype=bool)
    ends[1:] = (pieces.rank[1:] == 0) | (values[1:] - values[:-1] > 1e-3 * pieces.scale[1:])
    first = np.maximum.accumulate(np.where(ends, np.arange(len(values)), 0))
    sizes = np.bincount(first, minlength=len(values))
    groups = []
    for size in sorted(set(sizes[sizes > 1].tolist())):
        heads = np.flatnonzero(sizes == size)
        groups.append((heads // n, heads[:, None] + np.arange(size)))
    return groups


def orthonormalize(block) -> None:
    """Gram-Schmidt, twice per vector, on the rows of each matrix of a stack ``(c, size, n)``, in place.

    Each row becomes a combination of itself and the rows before it, so
    an entry that is zero in every row of a cluster stays exactly zero.
    """
    for j in range(block.shape[1]):
        done, v = block[:, :j], block[:, j]
        for _ in range(2):  # "twice is enough" (Parlett, ch. 6)
            v -= ((done @ v[:, :, None]).swapaxes(1, 2) @ done)[:, 0]
        v /= np.sqrt((v * v).sum(axis=1))[:, None]


def start_vectors(n: int) -> np.ndarray:
    """A fixed ``(n, n)`` matrix of entries in ``[-1, 1)``: the splitmix64 hash of each entry's place.

    Uniform random entries, as LAPACK ``dlarnv`` gives ``dstein``, without
    a random generator: the same n gives the same matrix in every call.
    """
    z = np.arange(1, n * n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return ((z >> np.uint64(11)) * 2.0**-52 - 1.0).reshape(n, n)


def residuals(pieces: Pieces, values, x) -> np.ndarray:
    """``||(T - lambda I) x||`` of each slot."""
    r = (pieces.diagonal - values[:, None]) * x
    r[:, :-1] += pieces.coupling * x[:, 1:]
    r[:, 1:] += pieces.coupling * x[:, :-1]
    return np.sqrt((r * r).sum(axis=1))


def inverse_iteration(pieces: Pieces, values, target) -> tuple:
    """Each slot's eigenvector of its piece, zero outside it, with the steps and residual of each matrix.

    Every slot starts from row j of one fixed matrix, the same for every
    matrix of order n, restricted to its piece. Each step solves
    ``(T - lambda I) x_new = x`` for every slot, normalizes, and
    orthonormalizes the vectors of each cluster. A matrix takes two steps,
    then more while the Frobenius norm of its slots' residuals misses its
    target, up to ``MAX_INVERSE_STEPS``; a finished matrix keeps its
    vectors through the later steps.
    """
    count = len(target)
    n = pieces.diagonal.shape[1]
    factors = factor(pieces, values)
    x = np.where(pieces.inside, np.tile(start_vectors(n), (count, 1)), 0.0)
    x /= np.sqrt((x * x).sum(axis=1))[:, None]
    clusters = cluster_slots(pieces, values)
    owner = np.repeat(np.arange(count), n)
    steps = np.zeros(count, dtype=int)
    residual = np.full(count, np.inf)
    while True:
        live = (steps < MAX_INVERSE_STEPS) & ((steps < 2) | (residual > target))
        if not live.any():
            return x, steps, residual
        y = solve(factors, x)
        y /= np.abs(y).max(axis=1)[:, None]  # so that y * y cannot overflow
        rows = live[owner]
        x[rows] = (y / np.sqrt((y * y).sum(axis=1))[:, None])[rows]
        for matrix, slots in clusters:
            slots = slots[live[matrix]]
            block = x[slots]
            orthonormalize(block)
            x[slots] = block
        steps += live
        r = residuals(pieces, values, x)
        residual = np.where(live, np.sqrt((r * r).reshape(count, n).sum(axis=1)), residual)


def eigensystems(h, target) -> tuple:
    """Householder reduction, Sturm bisection and inverse iteration of a stack of one order, overwriting it.

    h holds prescaled Hermitian matrices ``(m, n, n)`` and target one
    residual target per matrix. Returns each matrix's values, descending,
    its row eigenvectors in the same order, its counts of the bisection
    rounds of its slowest eigenvalue and of its inverse-iteration steps as
    a pair of ints, and its final residual, NaN if a slot was left open.
    """
    count, n = h.shape[:2]
    diagonal, below, phases, reflectors = householder(h)
    pieces = split(diagonal, below)
    values, rounds = bisect(pieces)
    x, steps, residual = inverse_iteration(pieces, values, target)
    values = values.reshape(count, n)
    residual[np.isnan(values).any(axis=1)] = np.nan  # an open slot fails its matrix
    order = np.argsort(-values, axis=1, kind="stable")
    rows = np.arange(count)[:, None]
    # the rows of T's eigenvectors, mapped back through D* and the reflectors
    vectors = x.reshape(count, n, n)[rows, order] * phases.conj()[:, None, :]
    for k in range(len(reflectors) - 1, -1, -1):
        u, beta = reflectors[k]
        tail = vectors[:, :, k + 1 :]
        tail -= (beta[:, None, None] * (tail @ u[..., None])) * u.conj()[:, None, :]
    counts = list(zip(rounds.reshape(count, n).max(axis=1).tolist(), steps.tolist()))
    return values[rows, order], vectors, counts, residual
