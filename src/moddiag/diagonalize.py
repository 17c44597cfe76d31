"""Diagonalization of self-adjoint and normal module operators.

The algorithm works one algebra block at a time. The flattened action of a
self-adjoint operator on A^n is a Hermitian (n*k) x (n*k) matrix; its scalar
spectrum is split into n windows of k consecutive ranks, and each window
becomes one algebra-valued eigenvalue (a diagonal k x k block) together with
a module eigenvector built from the matching orthonormal eigenvector rows.

Window labels follow a sign convention: windows of positive scalars take odd
labels 1, 3, 5, ... from the top of the spectrum down, windows of negative
scalars take even labels 2, 4, 6, ... from the bottom up, and windows that
contain zeros or a sign change take the remaining labels in ascending order.
Because the windows are consecutive rank ranges of a sorted list, adjacent
windows always compare entrywise, which yields a machine-checkable chain of
order relations linking every eigenvalue through the zero element.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .algebra import AlgebraElement, NotSelfAdjointError, ShapeMismatchError, _frozen_blocks, _positive_int
from .eigen import _tie_runs, eig_hermitian, eig_normal
from .modules import HilbertModule, ModuleElement
from .operators import ModuleOperator

__all__ = [
    "EigenPair",
    "OrderRelation",
    "DiagonalizationResult",
    "diagonalize_selfadjoint",
    "diagonalize_normal",
]


class EigenPair(NamedTuple):
    vector: "ModuleElement"
    value: AlgebraElement
    support: AlgebraElement
    label: int


@dataclass(frozen=True)
class OrderRelation:
    """lhs <= rhs between labeled eigenvalues; None stands for the zero element."""

    lhs: Optional[int]
    rhs: Optional[int]

    def describe(self) -> str:
        a = "0" if self.lhs is None else f"L{self.lhs}"
        b = "0" if self.rhs is None else f"L{self.rhs}"
        return f"{a} <= {b}"


@dataclass(frozen=True, eq=False)
class DiagonalizationResult:
    """Eigenpairs stored per algebra block, with their order certificate.

    For algebra block b of size k and P >= 1 pairs, vectors[b] is the (P, k, n*k)
    stack of the pairs' row strips and values[b] and supports[b] are the
    (P, k, k) stacks of their value and support blocks; pair p carries
    pair_labels[p], distinct integers of at least 1, and tolerance_used is
    in (0, 1) (ValueError otherwise). The stacks are copied and checked as
    element blocks are (``algebra._frozen_blocks``).
    The diagonalizers store the pairs in ascending label order;
    parse_solution and from_pairs keep the order they are given.
    Every consumer reads these stacks; ``pairs`` is a view of them as
    checked EigenPair objects, built on first use.
    """

    module: HilbertModule
    pair_labels: tuple
    vectors: tuple
    values: tuple
    supports: tuple
    ordering_certificate: tuple
    tolerance_used: float

    def __post_init__(self):
        try:
            labels = tuple(_positive_int(label, "a pair label") for label in self.pair_labels)
        except ValueError:
            raise ValueError(f"pair labels must be integers of at least 1, got {self.pair_labels!r}") from None
        if not labels:
            raise ValueError("a result needs at least one eigenpair")
        if len(set(labels)) != len(labels):
            raise ValueError(f"pair labels must be distinct, got {labels}")
        if not (isinstance(self.tolerance_used, Real) and 0.0 < self.tolerance_used < 1.0):
            raise ValueError(f"tolerance_used must be a number in (0, 1), got {self.tolerance_used!r}")
        object.__setattr__(self, "pair_labels", labels)
        object.__setattr__(self, "tolerance_used", float(self.tolerance_used))
        n = self.module.rank
        for part in ("vectors", "values", "supports"):
            shapes = [(len(labels), k, n * k if part == "vectors" else k) for k in self.module.shape.block_sizes]
            object.__setattr__(self, part, _frozen_blocks(getattr(self, part), shapes, part))

    @classmethod
    def from_pairs(cls, pairs, certificate, tolerance: float) -> DiagonalizationResult:
        """The given eigenpairs in the given order; ShapeMismatchError for one on another module."""
        pairs = tuple(pairs)
        if not pairs:
            raise ValueError("a result needs at least one eigenpair")
        module = pairs[0].vector.module
        for p in pairs:
            if p.vector.module != module or p.value.shape != module.shape or p.support.shape != module.shape:
                raise ShapeMismatchError(f"pair L{p.label} lives on another module than pair L{pairs[0].label}")
        # per part (vectors, values, supports), per algebra block, the pairs' blocks, stacked by the copy
        parts = zip(*((p.vector.blocks, p.value.blocks, p.support.blocks) for p in pairs))
        stacks = (tuple(zip(*part)) for part in parts)
        return cls(module, tuple(p.label for p in pairs), *stacks, tuple(certificate), tolerance)

    @cached_property
    def pairs(self) -> tuple:
        """The stored pairs as EigenPairs, each element copied and checked."""
        shape = self.module.shape
        return tuple(
            EigenPair(
                ModuleElement(self.module, [v[p] for v in self.vectors]),
                AlgebraElement(shape, [v[p] for v in self.values]),
                AlgebraElement(shape, [s[p] for s in self.supports]),
                label,
            )
            for p, label in enumerate(self.pair_labels)
        )

    def scalar_spectrum(self) -> tuple:
        """Per algebra block, the diagonal scalars of all value blocks.

        Valid for results produced here, whose values are diagonal with full
        support. Each block's list is sorted by descending real part, then
        descending imaginary part. Real parts that chain together in steps of
        at most 1e-10 times the block's largest |value| count as tied (the
        runs of eig_normal, with each block's own gap), so round-off in them
        cannot set the order.
        """
        spectrum = []
        for vals in self.values:
            d = np.diagonal(vals, axis1=1, axis2=2).ravel()
            d = d[np.argsort(-d.real, kind="stable")]
            run = _tie_runs(d.real, 1e-10 * float(np.abs(d).max()))
            spectrum.append(tuple(map(complex, d[np.lexsort((-d.imag, run))])))
        return tuple(spectrum)


def _windows(spectra, block_sizes, zero_tol: float):
    """Labels, read-ascending flags and order certificate for the n windows.

    spectra holds one descending scalar spectrum per algebra block; window m
    takes ranks m*k .. (m+1)*k - 1 of the spectrum of each block of size k,
    so window m dominates window m+1 entrywise. A scalar's sign mark is 1
    above zero_tol, -1 below -zero_tol and 0 in between. A window whose
    smallest mark is 1 is positive and takes the next odd label from the top
    down; one whose largest mark is -1 is negative and takes the next even
    label from the bottom up; the rest take the free labels in ascending
    order from the top down. A window reads ascending when it is negative,
    or when it is not positive and lies in the bottom half.
    """
    n = len(spectra[0]) // block_sizes[0]
    windows = np.concatenate([np.reshape(s, (n, k)) for s, k in zip(spectra, block_sizes)], axis=1)
    ends = np.stack([windows.min(axis=1), windows.max(axis=1)])
    lows, highs = ((ends > zero_tol).astype(int) - (ends < -zero_tol)).tolist()
    # the windows descend, so the positive ones form a prefix and the negative ones a suffix
    pos, neg = lows.count(1), highs.count(-1)
    odd, even = list(range(1, 2 * pos, 2)), list(range(2 * neg, 0, -2))
    free = sorted(set(range(1, 2 * n + 1)) - set(odd) - set(even))[: n - pos - neg]
    labels = odd + free + even
    reverse = [m >= n - neg or (m >= pos and m >= (n + 1) // 2) for m in range(n)]
    certificate = [OrderRelation(labels[m], labels[m - 1]) for m in range(n - 1, 0, -1)]
    # the links through zero: the first window with no positive mark, the last with no negative one
    certificate += [OrderRelation(labels[m], None) for m in [highs.count(1)] if m < n]
    certificate += [OrderRelation(None, labels[m]) for m in [n - 1 - lows.count(-1)] if m >= 0]
    return labels, reverse, tuple(certificate)


def _result(module: HilbertModule, spectra, labels, reverse, certificate, tol: float) -> DiagonalizationResult:
    """The result of the windows: eigenpairs with unit supports, in label order.

    spectra holds (values, row eigenvectors) per algebra block; pair m takes
    the ranks of window m, in reverse order where reverse[m] is set.
    """
    order, flip = np.argsort(labels), np.array(reverse, dtype=bool)
    vectors, values, supports = [], [], []
    for (vals, vecs), k in zip(spectra, module.shape.block_sizes):
        ranks = np.arange(module.rank * k).reshape(-1, k)
        ranks[flip] = ranks[flip, ::-1]
        ranks = ranks[order]
        vectors.append(vecs[ranks])
        diag = np.zeros((module.rank, k, k), dtype=np.complex128)
        diag[:, np.arange(k), np.arange(k)] = vals[ranks]
        values.append(diag)
        supports.append(np.repeat(np.eye(k, dtype=np.complex128)[None], module.rank, axis=0))
    labels = tuple(int(label) for label in np.asarray(labels)[order])
    return DiagonalizationResult(module, labels, tuple(vectors), tuple(values), tuple(supports), certificate, float(tol))


def diagonalize_selfadjoint(K: ModuleOperator, tol: float = 1e-9) -> DiagonalizationResult:
    """Produce labeled eigenpairs with unit supports and an order certificate.

    Every returned support is the algebra identity, the vectors are pairwise
    orthogonal with trivial orthogonal complement, and the certificate lists
    entrywise-checkable relations that chain all eigenvalues through zero.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError("tol must be in (0, 1)")
    if not K.is_selfadjoint(tol):
        raise NotSelfAdjointError("operator is not self-adjoint within tolerance")
    # every block in one eig_hermitian call, which sends each to Jacobi or to
    # the tridiagonal kernel (design notes, "The tridiagonal kernel")
    spectra = eig_hermitian([(blk + blk.conj().T) / 2.0 for blk in K.blocks], min(tol, 1e-12))
    # the verifier's order slack uses this same scale (design notes, "Zero classification")
    zero_tol = tol * K._norm_lower_bound()
    labels, reverse, certificate = _windows([v for v, _ in spectra], K.module.shape.block_sizes, zero_tol)
    return _result(K.module, spectra, labels, reverse, certificate, tol)


def diagonalize_normal(K: ModuleOperator, tol: float = 1e-9) -> DiagonalizationResult:
    """Same construction for normal operators, each block checked by eig_normal; complex values, no certificate."""
    if not 0.0 < tol < 1.0:
        raise ValueError("tol must be in (0, 1)")
    spectra = eig_normal(K.blocks, min(tol, 1e-10))
    n = K.module.rank
    return _result(K.module, spectra, range(1, n + 1), [False] * n, (), tol)
