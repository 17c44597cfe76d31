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
from typing import NamedTuple, Optional

import numpy as np

from .algebra import AlgebraElement, NotSelfAdjointError
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


@dataclass(frozen=True)
class DiagonalizationResult:
    pairs: tuple
    ordering_certificate: tuple
    tolerance_used: float

    def pair_by_label(self, label: int) -> EigenPair:
        for p in self.pairs:
            if p.label == label:
                return p
        raise KeyError(f"no eigenpair with label {label}")

    def labels(self) -> tuple:
        return tuple(p.label for p in self.pairs)

    def scalar_spectrum(self) -> tuple:
        """Per algebra block, the diagonal scalars of all value blocks.

        Valid for results produced here, whose values are diagonal with full
        support. Each block's list is sorted by descending real part, then
        descending imaginary part.
        """
        if not self.pairs:
            return ()
        shape = self.pairs[0].value.shape
        out = []
        for b in range(shape.num_blocks):
            vals = []
            for p in self.pairs:
                vals.extend(complex(z) for z in np.diag(p.value.blocks[b]))
            vals.sort(key=lambda z: (-z.real, -z.imag))
            out.append(tuple(vals))
        return tuple(out)


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


def _pairs(module: HilbertModule, spectra, labels, reverse) -> tuple:
    """Eigenpairs with unit supports, sorted by label.

    spectra holds (values, row eigenvectors) per algebra block; pair m takes
    the ranks of window m, in reverse order where reverse[m] is set.
    """
    shape = module.shape
    support = shape.identity()
    pairs = []
    for m, (label, rev) in enumerate(zip(labels, reverse)):
        stacked = []
        diag_blocks = []
        for (values, vectors), k in zip(spectra, shape.block_sizes):
            ranks = np.arange(m * k, (m + 1) * k)
            if rev:
                ranks = ranks[::-1]
            stacked.append(vectors[ranks, :])
            diag_blocks.append(np.diag(values[ranks].astype(np.complex128)))
        pairs.append(
            EigenPair(
                vector=ModuleElement._trusted(module, stacked),
                value=AlgebraElement._trusted(shape, diag_blocks),
                support=support,
                label=label,
            )
        )
    pairs.sort(key=lambda p: p.label)
    return tuple(pairs)


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
    values = [v for v, _ in spectra]
    zero_tol = tol * max(float(np.abs(v).max()) for v in values)
    labels, reverse, certificate = _windows(values, K.module.shape.block_sizes, zero_tol)
    pairs = _pairs(K.module, spectra, labels, reverse)
    return DiagonalizationResult(pairs, certificate, float(tol))


def diagonalize_normal(K: ModuleOperator, tol: float = 1e-9) -> DiagonalizationResult:
    """Same construction for normal operators; complex values, no certificate."""
    if not 0.0 < tol < 1.0:
        raise ValueError("tol must be in (0, 1)")
    if not K.is_normal(tol):
        raise NotNormalError("operator is not normal within tolerance")
    spectra = [eig_normal(blk, tol=min(tol, 1e-10)) for blk in K.blocks]
    n = K.module.rank
    pairs = _pairs(K.module, spectra, range(1, n + 1), [False] * n)
    return DiagonalizationResult(pairs, (), float(tol))
