"""Block matrix *-algebras: finite direct sums of full complex matrix algebras.

An element carries one square complex matrix per block. Multiplication,
adjoint, the norm and the semidefinite order all act blockwise. Elements
are immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from numbers import Complex
from typing import NoReturn, Sequence

import numpy as np

from .eigen import _hermitian_defect, _times_power_of_two, _zero_padded, eig_hermitian

__all__ = [
    "AlgebraShape",
    "AlgebraElement",
    "ShapeMismatchError",
    "NotSelfAdjointError",
    "leq",
]


class ShapeMismatchError(ValueError):
    pass


class NotSelfAdjointError(ValueError):
    pass


# Stop rule of _norm_lower_bound's power iteration: a step that raises the
# estimate by less than this fraction ends it, and so does the step cap.
_POWER_MIN_GAIN = 1e-3
_POWER_MAX_STEPS = 64


def _top_singular_value(blocks) -> float:
    """Largest singular value over a list of square matrices; 0 when all vanish.

    Each block is scaled by the power of two that brings its largest entry
    into ``[1/2, 1)`` (a zero block by 1) before ``a* a`` is formed, exactly,
    so the square neither under- nor overflows. All the squares go to one
    stacked ``eig_hermitian`` call.
    """
    exps = [math.frexp(float(np.abs(a).max()))[1] for a in blocks]
    scaled = [_times_power_of_two(a, -e) for a, e in zip(blocks, exps)]
    sols = eig_hermitian([s.conj().T @ s for s in scaled])
    return max(math.ldexp(math.sqrt(max(r.values[0], 0.0)), e) for r, e in zip(sols, exps))


def _norm_lower_bound(blocks) -> float:
    """Largest ``||a x|| / ||x||`` met by a power iteration on ``a* a``, over all blocks.

    Every such ratio is at most the largest singular value, so the result
    bounds ``_top_singular_value`` from below, using matrix-vector products
    only. Each block is scaled by the power of two that brings its largest
    entry into ``[1/2, 1)``, exactly, and the iteration starts at its
    column of largest norm, so the result is at least that column's norm
    (``>= ||a|| / sqrt(d)``). 0 when all blocks vanish.
    """
    out = 0.0
    for a in blocks:
        top = float(np.abs(a).max())
        if top == 0.0:
            continue
        e = math.frexp(top)[1]
        s = _times_power_of_two(a, -e)
        cols = np.sqrt((np.abs(s) ** 2).sum(axis=0))
        j = int(np.argmax(cols))
        y = s[:, j]
        best = float(cols[j])
        for _ in range(_POWER_MAX_STEPS):
            x = s.conj().T @ y
            y = s @ (x / np.linalg.norm(x))
            est = float(np.linalg.norm(y))
            gain = est - best
            best = max(best, est)
            if gain < _POWER_MIN_GAIN * best:
                break
        out = max(out, math.ldexp(best, e))
    return out


def _diagonals(stack: np.ndarray) -> np.ndarray:
    """A writable ``(m, n)`` view of the diagonals of a C-contiguous ``(m, n, n)`` stack."""
    n = stack.shape[-1]
    return stack.reshape(-1, n * n)[:, :: n + 1]


def _all_positive_definite(stacks, padded) -> bool:
    """Whether every Hermitian matrix in the ``(m, n, n)`` stacks has a Cholesky factor.

    The stacks share one order n and one factorization call decides them
    all. A matrix may stand for a smaller one zero-padded to order n:
    padded, the ``(m, n)`` mask of ``eigen._zero_padded`` over all the
    matrices, is True on the coordinates that padding added. Each
    matrix is first scaled by the power of two that brings its own largest
    entry into ``[1/2, 1)``, exactly, so the answer does not depend on its
    units; that entry lies in the unpadded matrix, so the scale is its
    scale. Its padded coordinates then get the identity: ``diag(M, I)`` has
    a factor exactly when M has. A matrix with a non-finite or no nonzero
    entry has no factor.
    """
    stack = np.concatenate(stacks)
    top = np.abs(stack).max(axis=(1, 2))
    if not ((0.0 < top) & (top < math.inf)).all():
        return False
    stack = _times_power_of_two(stack, -np.frexp(top)[1][:, None, None])
    _diagonals(stack)[padded] = 1.0
    try:
        np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        return False
    return True


def _all_above(stack, padded, tol: float) -> bool:
    """Whether no x in the ``(m, n, n)`` stack has ``sym(x)`` below -tol.

    By Sylvester's law of inertia that holds for x exactly when
    ``sym(x) + tol I`` has a Cholesky factor. padded is as in
    ``_all_positive_definite``; tol I is added on the unpadded coordinates
    only, so a zero-padded matrix stays zero outside them. Shifted
    matrices that are exactly zero are semidefinite and dropped.
    """
    shifted = _sym(stack)
    diagonals = _diagonals(shifted)
    diagonals += tol
    diagonals[padded] = 0.0
    nonzero = shifted.any(axis=(1, 2))
    return _all_positive_definite([shifted[nonzero]], padded[nonzero])


def _positive_int(value, what: str) -> int:
    """value as an int; ValueError naming it unless it is an integer, not a bool, of at least 1."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{what} must be a positive integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class AlgebraShape:
    """Direct-sum signature: the matrix size of each block."""

    block_sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(_positive_int(k, "a block size") for k in self.block_sizes)
        if not sizes:
            raise ValueError("an algebra needs at least one block")
        object.__setattr__(self, "block_sizes", sizes)

    @property
    def num_blocks(self) -> int:
        return len(self.block_sizes)

    def zero(self) -> AlgebraElement:
        return AlgebraElement(self, [np.zeros((k, k)) for k in self.block_sizes])

    def identity(self) -> AlgebraElement:
        return AlgebraElement(self, [np.eye(k) for k in self.block_sizes])

    def diagonal(self, entries_per_block) -> AlgebraElement:
        """Element with the given diagonal entries, zero elsewhere."""
        if len(entries_per_block) != self.num_blocks:
            raise ShapeMismatchError("one entry list per block expected")
        mats = []
        for k, ent in zip(self.block_sizes, entries_per_block):
            arr = np.asarray(ent, dtype=np.complex128)
            if arr.shape != (k,):
                raise ShapeMismatchError(f"expected {k} diagonal entries, got {arr.shape}")
            mats.append(np.diag(arr))
        return AlgebraElement(self, mats)


@lru_cache(maxsize=256)
def _copies_by_shape(shapes: tuple) -> tuple:
    """Per distinct block shape, in order of first appearance: (its blocks, the shape of their copy).

    A shape met once gives its block's index and the shape itself; a shape
    met m times gives the tuple of its blocks' indices and ``(m, *shape)``.
    """
    groups = {}
    for j, want in enumerate(shapes):
        groups.setdefault(want, []).append(j)
    return tuple(
        (members[0], want) if len(members) == 1 else (tuple(members), (len(members), *want))
        for want, members in groups.items()
    )


def _frozen_blocks(blocks: Sequence, shapes, what: str) -> tuple:
    """Read-only complex128 copies of the blocks, in block order; shapes gives each block's shape.

    The blocks are counted first. All blocks of one shape are copied by one
    np.array call into one stack, which is checked for shape and finite
    entries and made read-only once; block j comes back as a view into its
    shape's stack. A shape met once is copied alone and comes back as
    itself. When every block has one shape, blocks goes to np.array as
    given, so an ndarray stack is copied without a list. Any failure hands
    over to _first_fault, which raises the first fault in block order.
    """
    if len(blocks) != len(shapes):
        raise ShapeMismatchError(f"{what}: expected {len(shapes)} blocks, got {len(blocks)}")
    copies = _copies_by_shape(tuple(shapes))
    frozen = [None] * len(shapes)
    for members, want in copies:
        lone = isinstance(members, int)
        raw = blocks[members] if lone else blocks if len(copies) == 1 else [blocks[j] for j in members]
        try:
            stack = np.array(raw, dtype=np.complex128)
        except (ValueError, TypeError, OverflowError):  # ragged, not a number, an integer beyond the float range
            stack = None
        if stack is None or stack.shape != want or not np.isfinite(stack).all():
            _first_fault(blocks, shapes, what)
        stack.setflags(write=False)
        if lone:
            frozen[members] = stack
        elif len(copies) == 1:
            return tuple(stack)
        else:
            for j, block in zip(members, stack):
                frozen[j] = block
    return tuple(frozen)


def _first_fault(blocks: Sequence, shapes, what: str) -> NoReturn:
    """Raise the error of the first block, in block order, that fails a copy of its own.

    Called only when a stacked copy failed. A block fails when np.array
    raises on it, when its copy has the wrong shape, or when an entry is
    not finite. Blocks that pass one by one but not together (an object
    array of blocks) raise ShapeMismatchError.
    """
    for want, raw in zip(shapes, blocks):
        m = np.array(raw, dtype=np.complex128)
        if m.shape != want:
            raise ShapeMismatchError(f"{what}: block must be {want}, got {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError(f"{what} has non-finite entries")
    raise ShapeMismatchError(f"{what}: blocks of one shape must form one array")


class _Blocks:
    """A space and one read-only complex array per algebra block (``_frozen_blocks``).

    The shared base of ModuleElement and ``_SquareBlocks``. A subclass
    names its space (``shape`` or ``module``, a read-only property over
    ``_space``) and gives the block shapes that space asks for.
    """

    __slots__ = ("_space", "blocks")

    def __init__(self, space, blocks: Sequence):
        self._space = space
        self.blocks = _frozen_blocks(blocks, self._block_shapes(), type(self).__name__)

    def _require_same(self, other):
        if self._space != other._space:
            raise ShapeMismatchError(f"operands live in {self._space} and {other._space}")

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._require_same(other)
        return type(self)(self._space, [a + b for a, b in zip(self.blocks, other.blocks)])

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._require_same(other)
        return type(self)(self._space, [a - b for a, b in zip(self.blocks, other.blocks)])

    def __neg__(self):
        return type(self)(self._space, [-a for a in self.blocks])

    def __mul__(self, other):
        if isinstance(other, Complex):
            z = complex(other)
            return type(self)(self._space, [z * a for a in self.blocks])
        return NotImplemented

    __rmul__ = __mul__


class _SquareBlocks(_Blocks):
    """The block container of AlgebraElement and ModuleOperator, whose blocks are square."""

    __slots__ = ()

    def adjoint(self):
        return type(self)(self._space, [a.conj().T for a in self.blocks])

    def is_selfadjoint(self, tol: float = 1e-10) -> bool:
        """Every entry of ``M - M*`` is at most tol times the largest entry of M."""
        return bool(_hermitian_defect(self.blocks) <= tol)


class AlgebraElement(_SquareBlocks):
    """One element of a block matrix algebra: a tuple of square blocks."""

    __slots__ = ()

    @property
    def shape(self) -> AlgebraShape:
        return self._space

    def _block_shapes(self):
        return [(k, k) for k in self.shape.block_sizes]

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._require_same(other)
            return AlgebraElement(self.shape, [a @ b for a, b in zip(self.blocks, other.blocks)])
        return super().__mul__(other)

    def trace(self) -> complex:
        return complex(sum(np.trace(a) for a in self.blocks))

    def norm(self) -> float:
        """C*-norm: the largest singular value over all blocks."""
        return _top_singular_value(self.blocks)

    def isclose(self, other: AlgebraElement, tol: float = 1e-12) -> bool:
        return (self - other).norm() <= tol

    def __str__(self):
        parts = [np.array2string(a, precision=6, suppress_small=True) for a in self.blocks]
        return " (+) ".join(parts)

    def __repr__(self):
        return f"AlgebraElement(blocks={self.shape.block_sizes})"


def _check_selfadjoint(a: AlgebraElement, what: str):
    if not a.is_selfadjoint():
        raise NotSelfAdjointError(f"{what} must be self-adjoint")


def _sym(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.conj().swapaxes(-2, -1))


def leq(a: AlgebraElement, b: AlgebraElement, tol: float | None = None) -> bool:
    """Semidefinite order: b - a is positive semidefinite in every block.

    tol bounds how negative an eigenvalue of b - a may be; it defaults to
    1e-10 times a lower estimate of ||b - a||, so the answer does not
    depend on the units of a and b. No eigenvalue is formed: all blocks,
    zero-padded to one order, go through one Cholesky factorization call
    (``_all_above``). A shifted block that is exactly zero is semidefinite
    and passes.
    """
    a._require_same(b)
    _check_selfadjoint(a, "left operand")
    _check_selfadjoint(b, "right operand")
    diff = b - a
    if tol is None:
        tol = 1e-10 * _norm_lower_bound(diff.blocks)
    kmax = max(a.shape.block_sizes)
    return _all_above(*_zero_padded(diff.blocks, kmax, kmax), tol)
