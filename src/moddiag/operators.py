"""Bounded module maps on a free Hilbert module.

An operator is stored per algebra block as an (n*k, n*k) complex matrix
acting on stacked row strips from the right. With this convention the left
algebra action commutes with every operator by construction, entry (i, j)
of the operator is the k x k block at rows i*k.. and columns j*k.., and
composition, adjoint and norms are single matrix operations per block.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .algebra import _SquareBlocks, _norm_lower_bound, _top_singular_value
from .modules import HilbertModule, ModuleElement

__all__ = [
    "ModuleOperator",
    "theta",
]


class ModuleOperator(_SquareBlocks):
    """A-linear map on A^n, represented per block by its flattened action."""

    __slots__ = ("module", "_lower_bound")

    def __init__(self, module: HilbertModule, blocks: Sequence):
        self.module = module
        super().__init__(blocks)
        self._lower_bound = None

    def _space(self) -> HilbertModule:
        return self.module

    def _block_shapes(self):
        return [(self.module.rank * k,) * 2 for k in self.module.shape.block_sizes]

    @classmethod
    def zero(cls, module: HilbertModule) -> ModuleOperator:
        return cls(module, [np.zeros((module.rank * k,) * 2) for k in module.shape.block_sizes])

    @classmethod
    def identity(cls, module: HilbertModule) -> ModuleOperator:
        return cls(module, [np.eye(module.rank * k) for k in module.shape.block_sizes])

    def __call__(self, x: ModuleElement) -> ModuleElement:
        self._require_same(x)
        return ModuleElement(self.module, [st @ blk for st, blk in zip(x.blocks, self.blocks)])

    def __matmul__(self, other):
        """self after other: (self @ other)(x) = self(other(x))."""
        if not isinstance(other, ModuleOperator):
            return NotImplemented
        self._require_same(other)
        return ModuleOperator(self.module, [b @ a for a, b in zip(self.blocks, other.blocks)])

    def norm(self) -> float:
        """Operator norm: the top singular value of the flattened action."""
        return _top_singular_value(self.blocks)

    def _norm_lower_bound(self) -> float:
        """``algebra._norm_lower_bound`` of the blocks, run once: the blocks are read-only."""
        if self._lower_bound is None:
            self._lower_bound = _norm_lower_bound(self.blocks)
        return self._lower_bound

    def entrywise_max(self) -> float:
        return max(float(np.abs(blk).max()) for blk in self.blocks)

    def __repr__(self):
        return f"ModuleOperator(rank={self.module.rank}, blocks={self.module.shape.block_sizes})"


def theta(x: ModuleElement, y: ModuleElement) -> ModuleOperator:
    """Rank-one style map z -> <z, x> y; entry (i, j) is x_i* y_j."""
    x._require_same(y)
    mats = [xa.conj().T @ ya for xa, ya in zip(x.blocks, y.blocks)]
    return ModuleOperator(x.module, mats)
