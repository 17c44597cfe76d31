"""Bounded module maps on a free Hilbert module.

An operator is stored per algebra block as an (n*k, n*k) complex matrix
acting on stacked row strips from the right. With this convention the left
algebra action commutes with every operator by construction, entry (i, j)
of the operator is the k x k block at rows i*k.. and columns j*k.., and
composition, adjoint and norms are single matrix operations per block.
"""

from __future__ import annotations

from numbers import Complex
from typing import Sequence

import numpy as np

from .algebra import AlgebraElement, ShapeMismatchError, _top_singular_value
from .eigen import _hermitian_defect, _normality_defect
from .modules import HilbertModule, ModuleElement

__all__ = [
    "ModuleOperator",
    "theta",
]


class ModuleOperator:
    """A-linear map on A^n, represented per block by its flattened action."""

    __slots__ = ("module", "blocks")

    def __init__(self, module: HilbertModule, blocks: Sequence):
        mats = []
        for k, raw in zip(module.shape.block_sizes, blocks):
            m = np.array(raw, dtype=np.complex128)
            want = module.rank * k
            if m.shape != (want, want):
                raise ShapeMismatchError(f"operator block must be {want}x{want}, got {m.shape}")
            if not np.isfinite(m).all():
                raise ValueError("operator has non-finite entries")
            m.setflags(write=False)
            mats.append(m)
        if len(mats) != module.shape.num_blocks:
            raise ShapeMismatchError("wrong number of operator blocks")
        self.module = module
        self.blocks = tuple(mats)

    @classmethod
    def zero(cls, module: HilbertModule) -> ModuleOperator:
        return cls(module, [np.zeros((module.rank * k,) * 2) for k in module.shape.block_sizes])

    @classmethod
    def identity(cls, module: HilbertModule) -> ModuleOperator:
        return cls(module, [np.eye(module.rank * k) for k in module.shape.block_sizes])

    def entry(self, i: int, j: int) -> AlgebraElement:
        n = self.module.rank
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError("entry index out of range")
        mats = [
            blk[i * k : (i + 1) * k, j * k : (j + 1) * k]
            for k, blk in zip(self.module.shape.block_sizes, self.blocks)
        ]
        return AlgebraElement(self.module.shape, mats)

    def __call__(self, x: ModuleElement) -> ModuleElement:
        if x.module != self.module:
            raise ShapeMismatchError("element from a different module")
        return ModuleElement(self.module, [st @ blk for st, blk in zip(x.stacked, self.blocks)])

    def compose(self, other: ModuleOperator) -> ModuleOperator:
        """self after other: (self.compose(other))(x) = self(other(x))."""
        self._require_same(other)
        return ModuleOperator(
            self.module, [b @ a for a, b in zip(self.blocks, other.blocks)]
        )

    def __matmul__(self, other):
        if not isinstance(other, ModuleOperator):
            return NotImplemented
        return self.compose(other)

    def adjoint(self) -> ModuleOperator:
        return ModuleOperator(self.module, [blk.conj().T for blk in self.blocks])

    def _require_same(self, other: ModuleOperator):
        if self.module != other.module:
            raise ShapeMismatchError("operators act on different modules")

    def __add__(self, other):
        if not isinstance(other, ModuleOperator):
            return NotImplemented
        self._require_same(other)
        return ModuleOperator(self.module, [a + b for a, b in zip(self.blocks, other.blocks)])

    def __sub__(self, other):
        if not isinstance(other, ModuleOperator):
            return NotImplemented
        self._require_same(other)
        return ModuleOperator(self.module, [a - b for a, b in zip(self.blocks, other.blocks)])

    def __neg__(self):
        return ModuleOperator(self.module, [-a for a in self.blocks])

    def __mul__(self, other):
        if isinstance(other, Complex):
            z = complex(other)
            return ModuleOperator(self.module, [z * a for a in self.blocks])
        return NotImplemented

    __rmul__ = __mul__

    def norm(self) -> float:
        """Operator norm: the top singular value of the flattened action."""
        return _top_singular_value(self.blocks)

    def entrywise_max(self) -> float:
        return max(float(np.abs(blk).max()) for blk in self.blocks)

    def is_selfadjoint(self, tol: float = 1e-10) -> bool:
        """Every entry of ``K - K*`` is at most tol times the largest entry of K."""
        return bool(_hermitian_defect(self.blocks) <= tol)

    def is_normal(self, tol: float = 1e-10) -> bool:
        """Every entry of ``K K* - K* K`` is at most tol times the largest entry of K, squared."""
        return _normality_defect(self.blocks) <= tol

    def __repr__(self):
        return f"ModuleOperator(rank={self.module.rank}, blocks={self.module.shape.block_sizes})"


def theta(x: ModuleElement, y: ModuleElement) -> ModuleOperator:
    """Rank-one style map z -> <z, x> y; entry (i, j) is x_i* y_j."""
    x._require_same(y)
    mats = [xa.conj().T @ ya for xa, ya in zip(x.stacked, y.stacked)]
    return ModuleOperator(x.module, mats)
