"""Free Hilbert modules over a block matrix *-algebra.

A rank-n element is stored per algebra block as a (k, n*k) complex matrix
whose column strip i*k..(i+1)*k holds coordinate i. In this stacked layout
the algebra-valued inner product of x and y collapses to one matrix
product per block, X @ Y*, and the left algebra action is plain left
multiplication of each block strip.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Complex
from typing import Sequence

import numpy as np

from .algebra import AlgebraElement, AlgebraShape, ShapeMismatchError, _all_positive_definite, sqrt_pinv

__all__ = [
    "HilbertModule",
    "ModuleElement",
    "inner",
    "left_action",
    "right_action",
    "module_norm",
    "normalize_to_projection",
    "orthogonal_complement_trivial",
]


@dataclass(frozen=True)
class HilbertModule:
    """The free module A^rank with the inner product <x, y> = sum x_i y_i*."""

    shape: AlgebraShape
    rank: int

    def __post_init__(self):
        r = int(self.rank)
        if r < 1:
            raise ValueError("module rank must be at least 1")
        object.__setattr__(self, "rank", r)

    def element(self, coords: Sequence[AlgebraElement]) -> ModuleElement:
        if len(coords) != self.rank:
            raise ShapeMismatchError(f"expected {self.rank} coordinates, got {len(coords)}")
        for c in coords:
            if c.shape != self.shape:
                raise ShapeMismatchError("coordinate from a different algebra")
        stacked = [
            np.hstack([c.blocks[b] for c in coords])
            for b in range(self.shape.num_blocks)
        ]
        return ModuleElement(self, stacked)

    def zero_element(self) -> ModuleElement:
        return self.element([self.shape.zero()] * self.rank)

    def basis_element(self, index: int) -> ModuleElement:
        if not 0 <= index < self.rank:
            raise IndexError(f"coordinate index {index} out of range")
        coords = [self.shape.zero()] * self.rank
        coords[index] = self.shape.identity()
        return self.element(coords)


class ModuleElement:
    """One element of a free Hilbert module, stored per block as a row strip."""

    __slots__ = ("module", "stacked")

    def __init__(self, module: HilbertModule, stacked: Sequence):
        shape = module.shape
        mats = []
        for k, raw in zip(shape.block_sizes, stacked):
            m = np.array(raw, dtype=np.complex128)
            want = (k, module.rank * k)
            if m.shape != want:
                raise ShapeMismatchError(f"stacked block must be {want}, got {m.shape}")
            if not np.isfinite(m).all():
                raise ValueError("module element has non-finite entries")
            m.setflags(write=False)
            mats.append(m)
        if len(mats) != shape.num_blocks:
            raise ShapeMismatchError("wrong number of stacked blocks")
        self.module = module
        self.stacked = tuple(mats)

    @classmethod
    def _trusted(cls, module: HilbertModule, stacked) -> ModuleElement:
        """No check, no copy: the strips must be complex128, finite and of the right shape."""
        out = object.__new__(cls)
        out.module, out.stacked = module, tuple(stacked)
        for m in out.stacked:
            m.setflags(write=False)
        return out

    def coord(self, i: int) -> AlgebraElement:
        if not 0 <= i < self.module.rank:
            raise IndexError(f"coordinate index {i} out of range")
        shape = self.module.shape
        mats = [
            st[:, i * k : (i + 1) * k]
            for k, st in zip(shape.block_sizes, self.stacked)
        ]
        return AlgebraElement(shape, mats)

    def coords(self) -> tuple[AlgebraElement, ...]:
        return tuple(self.coord(i) for i in range(self.module.rank))

    def _require_same(self, other: ModuleElement):
        if self.module != other.module:
            raise ShapeMismatchError("elements live in different modules")

    def __add__(self, other):
        if not isinstance(other, ModuleElement):
            return NotImplemented
        self._require_same(other)
        return ModuleElement(self.module, [a + b for a, b in zip(self.stacked, other.stacked)])

    def __sub__(self, other):
        if not isinstance(other, ModuleElement):
            return NotImplemented
        self._require_same(other)
        return ModuleElement(self.module, [a - b for a, b in zip(self.stacked, other.stacked)])

    def __neg__(self):
        return ModuleElement(self.module, [-a for a in self.stacked])

    def __mul__(self, other):
        # x * a multiplies every coordinate by a on the right
        if isinstance(other, AlgebraElement):
            return right_action(self, other)
        if isinstance(other, Complex):
            z = complex(other)
            return ModuleElement(self.module, [z * a for a in self.stacked])
        return NotImplemented

    def __rmul__(self, other):
        # a * x is the left action, z * x the scalar one
        if isinstance(other, AlgebraElement):
            return left_action(other, self)
        if isinstance(other, Complex):
            z = complex(other)
            return ModuleElement(self.module, [z * a for a in self.stacked])
        return NotImplemented

    def norm(self) -> float:
        return module_norm(self)

    def __str__(self):
        return "(" + ", ".join(str(self.coord(i)) for i in range(self.module.rank)) + ")"

    def __repr__(self):
        return f"ModuleElement(rank={self.module.rank}, blocks={self.module.shape.block_sizes})"


def inner(x: ModuleElement, y: ModuleElement) -> AlgebraElement:
    """Algebra-valued inner product, linear in the first slot."""
    x._require_same(y)
    mats = [a @ b.conj().T for a, b in zip(x.stacked, y.stacked)]
    return AlgebraElement(x.module.shape, mats)


def left_action(a: AlgebraElement, x: ModuleElement) -> ModuleElement:
    if a.shape != x.module.shape:
        raise ShapeMismatchError("algebra element from a different algebra")
    return ModuleElement(x.module, [blk @ st for blk, st in zip(a.blocks, x.stacked)])


def right_action(x: ModuleElement, a: AlgebraElement) -> ModuleElement:
    """Coordinatewise right multiplication (x * a)_i = x_i a."""
    if a.shape != x.module.shape:
        raise ShapeMismatchError("algebra element from a different algebra")
    n = x.module.rank
    mats = []
    for st, blk, k in zip(x.stacked, a.blocks, x.module.shape.block_sizes):
        mats.append(np.hstack([st[:, i * k : (i + 1) * k] @ blk for i in range(n)]))
    return ModuleElement(x.module, mats)


def module_norm(x: ModuleElement) -> float:
    return float(np.sqrt(inner(x, x).norm()))


def normalize_to_projection(
    x: ModuleElement, rank_tol: float = 1e-8
) -> tuple[ModuleElement, AlgebraElement]:
    """Rescale x so its self inner product becomes a projection.

    Returns (x', q) with x' = s * x for s the pseudo-inverse square root of
    <x, x>, so that <x', x'> = q and q * x' = x'. Raises on the zero element.
    """
    gram = inner(x, x)
    if gram.norm() == 0.0:
        raise ValueError("cannot normalize the zero element")
    s, q = sqrt_pinv(gram, rank_tol=rank_tol)
    return left_action(s, x), q


def orthogonal_complement_trivial(elements: Sequence[ModuleElement], tol: float = 1e-8) -> bool:
    """Whether only the zero element is orthogonal to every given element.

    Flattens z -> (<z, x_i>)_i to a complex-linear system per block, with
    the stacked elements as rows, and checks the system has full column
    rank: its smallest singular value must exceed c = tol * max(1, ||rows||_F).
    That holds exactly when rows* rows - c**2 I is positive definite, which
    a Cholesky factorization decides, one per block order for the Gram
    matrices of all blocks of that order; the Frobenius norm is at least
    the largest singular value, so c is never below tol * max(1, smax).
    """
    if not elements:
        return False
    module = elements[0].module
    for e in elements:
        e._require_same(elements[0])
    by_order: dict = {}
    for b, k in enumerate(module.shape.block_sizes):
        rows = np.vstack([e.stacked[b] for e in elements])
        c = tol * max(1.0, float(np.linalg.norm(rows)))
        gram = rows.conj().T @ rows
        by_order.setdefault(k, []).append(gram - (c * c) * np.eye(gram.shape[0]))
    return all(_all_positive_definite(np.stack(group)) for group in by_order.values())
