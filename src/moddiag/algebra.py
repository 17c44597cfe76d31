"""Block matrix *-algebras: finite direct sums of full complex matrix algebras.

An element carries one square complex matrix per block. Multiplication,
adjoint, the norm and the semidefinite order all act blockwise. Elements
are immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Complex
from typing import Sequence

import numpy as np

from .eigen import _hermitian_defect, _times_power_of_two, eig_hermitian

__all__ = [
    "AlgebraShape",
    "AlgebraElement",
    "ShapeMismatchError",
    "NotSelfAdjointError",
    "is_projection",
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
    into ``[1/2, 1)`` before ``a* a`` is formed, exactly, so the square
    neither under- nor overflows.
    """
    out = 0.0
    for a in blocks:
        top = float(np.abs(a).max())
        if top == 0.0:
            continue
        e = math.frexp(top)[1]
        s = _times_power_of_two(a, -e)
        sq = eig_hermitian(s.conj().T @ s).values[0]
        out = max(out, math.ldexp(math.sqrt(max(sq, 0.0)), e))
    return out


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


def _all_positive_definite(stack: np.ndarray) -> bool:
    """Whether every Hermitian matrix in a stack ``(m, k, k)`` has a Cholesky factor.

    One factorization call decides the stack. Each matrix is first scaled by
    the power of two that brings its own largest entry into ``[1/2, 1)``,
    exactly, so the answer does not depend on its units. A matrix with a
    non-finite or no nonzero entry has no factor.
    """
    top = np.abs(stack).max(axis=(1, 2))
    if not ((0.0 < top) & (top < math.inf)).all():
        return False
    try:
        np.linalg.cholesky(_times_power_of_two(stack, -np.frexp(top)[1][:, None, None]))
    except np.linalg.LinAlgError:
        return False
    return True


def _all_above(stacks, tol: float) -> bool:
    """Whether no x in the ``(m, k, k)`` stacks has ``sym(x)`` below -tol.

    By Sylvester's law of inertia that holds for x exactly when
    ``sym(x) + tol I`` has a Cholesky factor. Shifted matrices that are
    exactly zero are semidefinite and dropped; the rest are factorized in
    one call per order.
    """
    by_order: dict = {}
    for st in stacks:
        k = st.shape[-1]
        shifted = _sym(st) + tol * np.eye(k)
        by_order.setdefault(k, []).append(shifted[shifted.any(axis=(-2, -1))])
    return all(_all_positive_definite(np.concatenate(group)) for group in by_order.values())


@dataclass(frozen=True)
class AlgebraShape:
    """Direct-sum signature: the matrix size of each block."""

    block_sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(int(k) for k in self.block_sizes)
        if not sizes:
            raise ValueError("an algebra needs at least one block")
        if any(k < 1 for k in sizes):
            raise ValueError("block sizes must be positive")
        object.__setattr__(self, "block_sizes", sizes)

    @property
    def num_blocks(self) -> int:
        return len(self.block_sizes)

    @property
    def dim(self) -> int:
        """Complex dimension of the algebra."""
        return sum(k * k for k in self.block_sizes)

    def element(self, blocks) -> AlgebraElement:
        return AlgebraElement(self, blocks)

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

    def block_projection(self, index: int) -> AlgebraElement:
        """Central projection onto one block."""
        mats = [
            np.eye(k) if b == index else np.zeros((k, k))
            for b, k in enumerate(self.block_sizes)
        ]
        return AlgebraElement(self, mats)


class AlgebraElement:
    """One element of a block matrix algebra: a tuple of square blocks."""

    __slots__ = ("shape", "blocks")

    def __init__(self, shape: AlgebraShape, blocks: Sequence):
        if len(blocks) != shape.num_blocks:
            raise ShapeMismatchError(
                f"expected {shape.num_blocks} blocks, got {len(blocks)}"
            )
        mats = []
        for k, raw in zip(shape.block_sizes, blocks):
            m = np.array(raw, dtype=np.complex128)
            if m.shape != (k, k):
                raise ShapeMismatchError(f"block must be {k}x{k}, got {m.shape}")
            if not np.isfinite(m).all():
                raise ValueError("algebra element has non-finite entries")
            m.setflags(write=False)
            mats.append(m)
        self.shape = shape
        self.blocks = tuple(mats)

    def _require_same(self, other: AlgebraElement):
        if self.shape != other.shape:
            raise ShapeMismatchError("elements live in different algebras")

    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._require_same(other)
        return AlgebraElement(self.shape, [a + b for a, b in zip(self.blocks, other.blocks)])

    def __sub__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._require_same(other)
        return AlgebraElement(self.shape, [a - b for a, b in zip(self.blocks, other.blocks)])

    def __neg__(self):
        return AlgebraElement(self.shape, [-a for a in self.blocks])

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._require_same(other)
            return AlgebraElement(self.shape, [a @ b for a, b in zip(self.blocks, other.blocks)])
        if isinstance(other, Complex):
            z = complex(other)
            return AlgebraElement(self.shape, [z * a for a in self.blocks])
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, Complex):
            z = complex(other)
            return AlgebraElement(self.shape, [z * a for a in self.blocks])
        return NotImplemented

    def adjoint(self) -> AlgebraElement:
        return AlgebraElement(self.shape, [a.conj().T for a in self.blocks])

    def trace(self) -> complex:
        return complex(sum(np.trace(a) for a in self.blocks))

    def norm(self) -> float:
        """C*-norm: the largest singular value over all blocks."""
        return _top_singular_value(self.blocks)

    def isclose(self, other: AlgebraElement, tol: float = 1e-12) -> bool:
        return (self - other).norm() <= tol

    def is_selfadjoint(self, tol: float = 1e-10) -> bool:
        """Every entry of ``a - a*`` is at most tol times the largest entry of a."""
        return bool(_hermitian_defect(self.blocks) <= tol)

    def __str__(self):
        parts = [np.array2string(a, precision=6, suppress_small=True) for a in self.blocks]
        return " (+) ".join(parts)

    def __repr__(self):
        return f"AlgebraElement(shape={self.shape.block_sizes}, norm={self.norm():.6g})"


def is_projection(a: AlgebraElement, tol: float = 1e-9) -> bool:
    """True when a is self-adjoint and idempotent within tol (absolute)."""
    if (a - a.adjoint()).norm() > tol:
        return False
    return (a * a - a).norm() <= tol


def _check_selfadjoint(a: AlgebraElement, what: str):
    if not a.is_selfadjoint():
        raise NotSelfAdjointError(f"{what} must be self-adjoint")


def _sym(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.conj().swapaxes(-2, -1))


def leq(a: AlgebraElement, b: AlgebraElement, tol: float | None = None) -> bool:
    """Semidefinite order: b - a is positive semidefinite in every block.

    tol bounds how negative an eigenvalue of b - a may be; it defaults to
    1e-10 times a lower estimate of ||b - a||, so the answer does not
    depend on the units of a and b. No eigenvalue is formed: blocks of
    equal order go through one Cholesky factorization (``_all_above``). A
    shifted block that is exactly zero is semidefinite and passes.
    """
    a._require_same(b)
    _check_selfadjoint(a, "left operand")
    _check_selfadjoint(b, "right operand")
    diff = b - a
    if tol is None:
        tol = 1e-10 * _norm_lower_bound(diff.blocks)
    return _all_above([blk[None] for blk in diff.blocks], tol)
