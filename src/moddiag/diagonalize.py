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

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .algebra import AlgebraElement, NotSelfAdjointError, ShapeMismatchError, _norm_lower_bound
from .eigen import NotNormalError, eig_hermitian, eig_normal
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

    For algebra block b of size k and P pairs, vectors[b] is the (P, k, n*k)
    stack of the pairs' row strips and values[b] and supports[b] are the
    (P, k, k) stacks of their value and support blocks; pair p carries
    pair_labels[p]. The diagonalizers store the pairs in ascending label
    order; parse_solution and from_pairs keep the order they are given.
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
        for stack in self.vectors + self.values + self.supports:
            stack.setflags(write=False)

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
        # per part (vectors, values, supports), per algebra block, one stack over the pairs
        parts = zip(*((p.vector.stacked, p.value.blocks, p.support.blocks) for p in pairs))
        stacks = (tuple(map(np.stack, zip(*part))) for part in parts)
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

    def pair_by_label(self, label: int) -> EigenPair:
        if label not in self.pair_labels:
            raise KeyError(f"no eigenpair with label {label}")
        return self.pairs[self.pair_labels.index(label)]

    def labels(self) -> tuple:
        return self.pair_labels

    def scalar_spectrum(self) -> tuple:
        """Per algebra block, the diagonal scalars of all value blocks.

        Valid for results produced here, whose values are diagonal with full
        support. Each block's list is sorted by descending real part, then
        descending imaginary part.
        """
        diagonals = (np.diagonal(vals, axis1=1, axis2=2).ravel() for vals in self.values)
        return tuple(tuple(sorted(map(complex, d), key=lambda z: (-z.real, -z.imag))) for d in diagonals)


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
    lows, highs = [], []
    for m in range(n):
        window = np.concatenate([s[m * k : (m + 1) * k] for s, k in zip(spectra, block_sizes)])
        lo, hi = float(window.min()), float(window.max())
        lows.append(int(lo > zero_tol) - int(lo < -zero_tol))
        highs.append(int(hi > zero_tol) - int(hi < -zero_tol))

    labels: list = [None] * n
    odd, even = itertools.count(1, 2), itertools.count(2, 2)
    for m in range(n):
        if lows[m] == 1:
            labels[m] = next(odd)
    for m in reversed(range(n)):
        if highs[m] == -1:
            labels[m] = next(even)
    taken = set(labels)
    free = (label for label in itertools.count(1) if label not in taken)
    labels = [next(free) if label is None else label for label in labels]

    reverse = [highs[m] == -1 or (lows[m] < 1 and m >= (n + 1) // 2) for m in range(n)]

    certificate = [OrderRelation(labels[m], labels[m - 1]) for m in range(n - 1, 0, -1)]
    first_nonpos = next((m for m in range(n) if highs[m] <= 0), None)
    if first_nonpos is not None:
        certificate.append(OrderRelation(labels[first_nonpos], None))
    last_nonneg = next((m for m in reversed(range(n)) if lows[m] >= 0), None)
    if last_nonneg is not None:
        certificate.append(OrderRelation(None, labels[last_nonneg]))
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
    spectra = []
    for blk in K.blocks:
        res = eig_hermitian((blk + blk.conj().T) / 2.0, tol=min(tol, 1e-12))
        spectra.append((res.values, res.vectors))
    # the verifier's order slack uses this same scale (design notes, "Zero classification")
    zero_tol = tol * _norm_lower_bound(K.blocks)
    labels, reverse, certificate = _windows([v for v, _ in spectra], K.module.shape.block_sizes, zero_tol)
    return _result(K.module, spectra, labels, reverse, certificate, tol)


def diagonalize_normal(K: ModuleOperator, tol: float = 1e-9) -> DiagonalizationResult:
    """Same construction for normal operators; complex values, no certificate."""
    if not 0.0 < tol < 1.0:
        raise ValueError("tol must be in (0, 1)")
    if not K.is_normal(tol):
        raise NotNormalError("operator is not normal within tolerance")
    spectra = [eig_normal(blk, tol=min(tol, 1e-10)) for blk in K.blocks]
    n = K.module.rank
    return _result(K.module, spectra, range(1, n + 1), [False] * n, (), tol)
