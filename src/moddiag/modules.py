"""Free Hilbert modules over a block matrix *-algebra.

A rank-n element is stored per algebra block as a (k, n*k) complex matrix
whose column strip i*k..(i+1)*k holds coordinate i. In this stacked layout
the algebra-valued inner product of x and y collapses to one matrix
product per block, X @ Y*, and the left algebra action is plain left
multiplication of each block strip.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import (
    AlgebraElement,
    AlgebraShape,
    ShapeMismatchError,
    _all_positive_definite,
    _Blocks,
    _diagonals,
    _positive_int,
)
from .eigen import _zero_padded

__all__ = [
    "HilbertModule",
    "ModuleElement",
    "inner",
    "left_action",
    "right_action",
    "orthogonal_complement_trivial",
]


@dataclass(frozen=True)
class HilbertModule:
    """The free module A^rank with the inner product <x, y> = sum x_i y_i*."""

    shape: AlgebraShape
    rank: int

    def __post_init__(self):
        object.__setattr__(self, "rank", _positive_int(self.rank, "the module rank"))

    def element(self, coords: Sequence[AlgebraElement]) -> ModuleElement:
        if len(coords) != self.rank:
            raise ShapeMismatchError(f"expected {self.rank} coordinates, got {len(coords)}")
        for c in coords:
            if c.shape != self.shape:
                raise ShapeMismatchError("coordinate from a different algebra")
        blocks = [
            np.hstack([c.blocks[b] for c in coords])
            for b in range(self.shape.num_blocks)
        ]
        return ModuleElement(self, blocks)


class ModuleElement(_Blocks):
    """One element of a free Hilbert module, stored per block as a row strip."""

    __slots__ = ("module",)

    def __init__(self, module: HilbertModule, blocks: Sequence):
        self.module = module
        super().__init__(blocks)

    def _space(self) -> HilbertModule:
        return self.module

    def _block_shapes(self):
        return [(k, self.module.rank * k) for k in self.module.shape.block_sizes]

    def coord(self, i: int) -> AlgebraElement:
        if not 0 <= i < self.module.rank:
            raise IndexError(f"coordinate index {i} out of range")
        shape = self.module.shape
        mats = [
            st[:, i * k : (i + 1) * k]
            for k, st in zip(shape.block_sizes, self.blocks)
        ]
        return AlgebraElement(shape, mats)

    def __mul__(self, other):
        # x * a multiplies every coordinate by a on the right
        if isinstance(other, AlgebraElement):
            return right_action(self, other)
        return super().__mul__(other)

    def __rmul__(self, other):
        # a * x is the left action, z * x the scalar one
        if isinstance(other, AlgebraElement):
            return left_action(other, self)
        return super().__rmul__(other)

    def norm(self) -> float:
        """``sqrt(||<x, x>||)``."""
        return float(np.sqrt(inner(self, self).norm()))

    def __str__(self):
        return "(" + ", ".join(str(self.coord(i)) for i in range(self.module.rank)) + ")"

    def __repr__(self):
        return f"ModuleElement(rank={self.module.rank}, blocks={self.module.shape.block_sizes})"


def inner(x: ModuleElement, y: ModuleElement) -> AlgebraElement:
    """Algebra-valued inner product, linear in the first slot."""
    x._require_same(y)
    mats = [a @ b.conj().T for a, b in zip(x.blocks, y.blocks)]
    return AlgebraElement(x.module.shape, mats)


def left_action(a: AlgebraElement, x: ModuleElement) -> ModuleElement:
    if a.shape != x.module.shape:
        raise ShapeMismatchError("algebra element from a different algebra")
    return ModuleElement(x.module, [blk @ st for blk, st in zip(a.blocks, x.blocks)])


def right_action(x: ModuleElement, a: AlgebraElement) -> ModuleElement:
    """Coordinatewise right multiplication (x * a)_i = x_i a."""
    if a.shape != x.module.shape:
        raise ShapeMismatchError("algebra element from a different algebra")
    n = x.module.rank
    mats = []
    for st, blk, k in zip(x.blocks, a.blocks, x.module.shape.block_sizes):
        mats.append(np.hstack([st[:, i * k : (i + 1) * k] @ blk for i in range(n)]))
    return ModuleElement(x.module, mats)


def _complement_grams(strips: np.ndarray, padded: np.ndarray, tol: float) -> np.ndarray:
    """``V* V - c**2 I`` per block, from zero-padded strips ``(m, P, kmax, N)``.

    V is a block's ``(P*kmax, N)`` reshape and ``c = tol * max(1, ||V||_F)``,
    with ``||V||_F**2`` the trace of ``V* V``. padded, ``(m, N)`` bool, is
    True on the coordinates that padding added; c**2 I is subtracted on the
    others only, so a padded coordinate keeps its zero row and column.
    """
    rows = strips.reshape(len(strips), -1, strips.shape[-1])
    gram = rows.conj().swapaxes(1, 2) @ rows
    diagonals = _diagonals(gram)
    diagonals -= (tol * tol * np.maximum(1.0, diagonals.real.sum(axis=1)))[:, None]
    diagonals[padded] = 0.0
    return gram


def orthogonal_complement_trivial(vectors: Sequence[np.ndarray], tol: float = 1e-8) -> bool:
    """Whether only the zero element is orthogonal to every given element.

    vectors holds, per algebra block, the (P, k, n*k) stack of the given
    elements' row strips, as in DiagonalizationResult.vectors. Flattens
    z -> (<z, x_i>)_i to a complex-linear system per block, with the stacked
    strips as rows, and checks the system has full column rank: its
    smallest singular value must exceed c = tol * max(1, ||rows||_F). That
    holds exactly when rows* rows - c**2 I is positive definite, which one
    Cholesky factorization call decides for the Gram matrices of all
    blocks, zero-padded to the largest order (``_complement_grams``); the
    Frobenius norm is at least the largest singular value, so c is never
    below tol * max(1, smax).
    """
    if not vectors:
        return False
    kmax = max(np.shape(stack)[-2] for stack in vectors)
    strips, padded = _zero_padded(vectors, kmax, max(np.shape(stack)[-1] for stack in vectors))
    return _all_positive_definite([_complement_grams(strips, padded, tol)], padded)
