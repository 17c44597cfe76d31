"""Independent checks on a claimed eigensystem.

verify_eigensystem recomputes every claim from scratch: eigen-equation
residuals, triviality of the orthogonal complement, pairwise orthogonality,
projection quality of the supports, the support identity value * support =
value, and the order relations of the certificate. No clause calls the
eigensolver it audits. Every algebra block is zero-padded to the largest
block order, so a chunk of blocks is one stack and each clause one batched
expression over it: the claimed vectors of a block stacked into one matrix
V, the products V K - D V and V V* hold every eigen, orthogonality and
projection residual at once. Zero padding changes no entry of a product,
so a fault in a small block shows at its full size. The operator scale
comes from a power iteration, and rank and order are decided by one
Cholesky factorization call each, with the identity on the padded
coordinates. The moment oracle checks spectrum preservation without ever
eigendecomposing: it compares traces of operator powers against traces of
powers of the compressed values, so a wrong spectrum cannot hide behind a
consistent-looking eigenbasis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import ShapeMismatchError, _all_above, _all_positive_definite
from .diagonalize import DiagonalizationResult
from .eigen import _hermitian_defect, _times_power_of_two, _zero_padded
from .modules import _complement_grams
from .operators import ModuleOperator

__all__ = [
    "VerificationReport",
    "verify_eigensystem",
    "moment_deviation",
]

# moment_deviation compares the traces of the powers 1 .. _MAX_MOMENT
_MAX_MOMENT = 6
# moment_deviation holds the powers, and verify_eigensystem the padded
# products, of at most this many bytes of blocks at once (of one block at
# least): large arrays that come and go leave the process larger (design
# notes, "Verifier without the eigensolver")
_POWERS_BYTES = 1 << 19


@dataclass(frozen=True)
class VerificationReport:
    """All residuals and flags from one verification run.

    Each residual is the largest Frobenius norm, over algebra blocks and
    pairs, of one pair's block of a residual matrix, which bounds the
    C*-norm of the same quantity from above. The orthogonality residual and
    the projection defect compare inner products of vectors meant to be
    normalized, so they carry no units and are bounded by tolerance. The
    eigen and support residuals carry the units of K and are bounded by
    residual_bound = tolerance * operator_scale, where operator_scale is a
    power-iteration estimate of ||K|| from below; for K = 0 that bound is 0
    and only exact zeros pass. worst_pairs names, per key of the residuals,
    the label of the pair (for orthogonality, the two labels) with the
    largest residual. overall is true exactly when every residual is inside
    its bound and every flag holds.
    """

    eigen_residual: float
    complement_trivial: bool
    orthogonality_residual: float
    projection_defect: float
    support_residual: float
    ordering_ok: bool
    oracle_ok: bool
    moment_worst: float
    relations: tuple
    tolerance: float
    moment_tolerance: float
    operator_scale: float
    worst_pairs: dict

    @property
    def residual_bound(self) -> float:
        return self.tolerance * self.operator_scale

    @property
    def overall(self) -> bool:
        bound = self.residual_bound
        return (
            self.eigen_residual <= bound
            and self.complement_trivial
            and self.orthogonality_residual <= self.tolerance
            and self.projection_defect <= self.tolerance
            and self.support_residual <= bound
            and self.ordering_ok
            and self.oracle_ok
        )

    def _worst(self, clause: str) -> str:
        worst = self.worst_pairs.get(clause)
        if worst is None:
            return ""
        labels = worst if isinstance(worst, tuple) else (worst,)
        return " (worst " + ", ".join(f"L{label}" for label in labels) + ")"

    def summary(self) -> str:
        status = "pass" if self.overall else "fail"
        lines = [
            f"overall: {status}",
            f"eigen residual:         {self.eigen_residual:.3e}{self._worst('eigen')}",
            f"complement trivial:     {self.complement_trivial}",
            f"orthogonality residual: {self.orthogonality_residual:.3e}{self._worst('orthogonality')}",
            f"projection defect:      {self.projection_defect:.3e}{self._worst('projection')}",
            f"support residual:       {self.support_residual:.3e}{self._worst('support')}",
            f"ordering ok:            {self.ordering_ok} ({len(self.relations)} relations)",
            f"moment oracle:          {self.oracle_ok} (worst deviation {self.moment_worst:.3e})",
        ]
        return "\n".join(lines)


def _ordering_ok(result: DiagonalizationResult, values: np.ndarray, padded: np.ndarray, order_tol: float) -> bool:
    """Whether every certificate relation holds as ``leq(lhs, rhs, tol=order_tol)``.

    values and padded are ``_zero_padded`` of the result's values, ``(r, P, kmax, kmax)`` and ``(r, kmax)``.
    All relations are decided at once: a stack of ``rhs - lhs`` over every
    relation and block, one Cholesky factorization call. A relation naming
    a label with no pair, or a value that is not self-adjoint, fails the
    clause.
    """
    cert = result.ordering_certificate
    if not cert:
        return True
    index = {label: i for i, label in enumerate(result.pair_labels)}
    index[None] = len(index)  # the zero element, stacked after the values
    if any(rel.lhs not in index or rel.rhs not in index for rel in cert):
        return False
    lhs, rhs = [index[rel.lhs] for rel in cert], [index[rel.rhs] for rel in cert]
    # AlgebraElement.is_selfadjoint, for each value that a relation names
    used = sorted(set(lhs + rhs) - {index[None]})
    if (_hermitian_defect([v[used] for v in result.values]) > 1e-10).any():
        return False
    with_zero = np.concatenate([values, np.zeros_like(values[:, :1])], axis=1)
    kmax = values.shape[-1]
    diffs = (with_zero[:, rhs] - with_zero[:, lhs]).reshape(-1, kmax, kmax)
    return _all_above(diffs, np.repeat(padded, len(cert), axis=0), order_tol)


def _squares(stack: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each matrix in a stack (the last two axes)."""
    return (np.abs(stack) ** 2).sum(axis=(-2, -1))


def _worst(residuals: np.ndarray, name):
    """name(m) for the largest residual m; None when there is none or it is 0."""
    if not residuals.size:
        return None
    m = int(np.argmax(residuals))
    return None if residuals[m] == 0.0 else name(m)


def moment_deviation(K: ModuleOperator, result: DiagonalizationResult) -> float:
    """Worst trace-of-power deviation over all moments and blocks.

    For block b and power p up to _MAX_MOMENT it compares ``tr K_b^p`` with
    the sum of ``tr c^p`` over the compressed values ``c = s v s`` of the
    pairs, relative to ``||K_b||_F ||K_b^(p-1)||_F``. That bound on ``|tr K_b^p|``
    (Cauchy-Schwarz) comes from K alone and scales like ``K^p``, so the
    deviation carries no units; where it is 0 only exact equality passes.
    Each block and its values enter scaled by the same exact power of two.
    Blocks of equal size are stacked, up to _POWERS_BYTES of powers at a
    time, so each power is one batched product and the traces and norms
    of all powers are one call each.
    """
    sizes = K.module.shape.block_sizes
    worst = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in dict.fromkeys(sizes):
            same = [b for b, size in enumerate(sizes) if size == k]
            step = max(1, _POWERS_BYTES // (16 * _MAX_MOMENT * (K.module.rank * k) ** 2))
            for group in (same[i : i + step] for i in range(0, len(same), step)):
                blocks = np.stack([K.blocks[b] for b in group])
                e = np.frexp(np.abs(blocks).max(axis=(1, 2)))[1][:, None, None]
                flat = _times_power_of_two(blocks, -e)
                sups = np.stack([result.supports[b] for b in group])
                vals = _times_power_of_two(np.stack([result.values[b] for b in group]), -e[..., None])
                compressed = sups @ vals @ sups
                powers = np.empty((_MAX_MOMENT,) + flat.shape, dtype=np.complex128)
                compressed_powers = np.empty((_MAX_MOMENT,) + compressed.shape, dtype=np.complex128)
                powers[0], compressed_powers[0] = flat, compressed
                for p in range(1, _MAX_MOMENT):
                    np.matmul(powers[p - 1], flat, out=powers[p])
                    np.matmul(compressed_powers[p - 1], compressed, out=compressed_powers[p])
                # np.hypot and the dot products of real and imaginary parts
                # round as abs() of a complex number and np.linalg.norm do;
                # matmul of a row by a column is numpy's dot loop
                gap = powers.trace(axis1=-2, axis2=-1) - compressed_powers.trace(axis1=-2, axis2=-1).sum(axis=-1)
                diff = np.hypot(gap.real, gap.imag)
                # ||K_b^(p-1)||_F for p = 1 .. _MAX_MOMENT; K_b^0 is the identity
                rows = powers[:-1].reshape(_MAX_MOMENT - 1, len(group), 1, -1)
                squares = (rows.real @ rows.real.swapaxes(-2, -1) + rows.imag @ rows.imag.swapaxes(-2, -1))[..., 0, 0]
                below = np.sqrt(np.concatenate([np.full((1, len(group)), float(flat.shape[-1])), squares]))
                bound = below[1] * below
                if np.isnan(diff).any() or (diff[bound == 0.0] > 0.0).any():
                    return math.inf
                positive = bound > 0.0
                if positive.any():
                    worst = max(worst, float((diff[positive] / bound[positive]).max()))
    return worst


def verify_eigensystem(
    K: ModuleOperator,
    result: DiagonalizationResult,
    tol: float = 1e-9,
    moment_tol: float = 1e-7,
) -> VerificationReport:
    """Check a claimed eigensystem of K clause by clause; no clause calls the eigensolver.

    The clauses and their bounds: each pair's eigen-equation residual and
    support residual (``value * support - value``) within ``tol *
    operator_scale``, also the slack of every certificate relation, checked
    as ``leq``; pairwise orthogonality, and each support the projection
    ``<x, x>``, within ``tol``; a trivial orthogonal complement of the
    vectors; the moment oracle within ``moment_tol``. ValueError for a tol
    or moment_tol outside (0, 1); ShapeMismatchError for a result on
    another module than K's.
    """
    if not (0.0 < tol < 1.0 and 0.0 < moment_tol < 1.0):
        raise ValueError("tol and moment_tol must be in (0, 1)")
    if result.module != K.module:
        raise ShapeMismatchError("the result and the operator live on different modules")
    labels = result.pair_labels
    count = len(labels)
    scale = K._norm_lower_bound()  # a function of K alone, never of the claim

    # every block is zero-padded to the largest order kmax and to width =
    # rank * kmax columns, so each clause is one batched expression over a
    # chunk of blocks. Per pair (per pair of pairs i < j for orthogonality)
    # the largest squared Frobenius norm over the blocks is kept. K and the
    # values enter scaled by 2**-e, exactly, so the eigen and support
    # residuals are formed near unit size
    sizes = K.module.shape.block_sizes
    kmax = max(sizes)
    width = K.module.rank * kmax
    e = math.frexp(K.entrywise_max())[1]
    values, value_padded = _zero_padded(result.values, kmax, kmax)
    sups, _ = _zero_padded(result.supports, kmax, kmax)
    own = np.arange(count)
    first, second = np.nonzero(own[:, None] < own)  # as np.triu_indices(count, 1)
    eigen = np.zeros(count)
    orthogonality = np.zeros(first.size)
    grams, masks = [], []
    # about the bytes that one block's K, strips, products and Gram take
    step = max(1, _POWERS_BYTES // (16 * (count * kmax + width) ** 2))
    with np.errstate(over="ignore", invalid="ignore"):
        vals = _times_power_of_two(values, -e)
        support = _squares(vals @ sups - vals).max(axis=0)
        projection = np.maximum(_squares(sups - sups.conj().swapaxes(2, 3)), _squares(sups @ sups - sups)).max(axis=0)
        for start in range(0, len(sizes), step):
            chunk = slice(start, start + step)
            # padded: the coordinates of K_b and of its Gram matrix that padding added
            strips, padded = _zero_padded(result.vectors[chunk], kmax, width)
            rows = strips.reshape(len(strips), count * kmax, width)
            image = rows @ _times_power_of_two(_zero_padded(K.blocks[chunk], width, width)[0], -e)
            eigen = np.maximum(eigen, _squares(image.reshape(strips.shape) - vals[chunk] @ strips).max(axis=0))
            # gram[c, i, j] is the kmax x kmax block <x_i, x_j> in block c of the chunk
            gram = (rows @ rows.conj().swapaxes(1, 2)).reshape(len(rows), count, kmax, count, kmax).swapaxes(2, 3)
            orthogonality = np.maximum(orthogonality, _squares(gram[:, first, second]).max(axis=0))
            projection = np.maximum(projection, _squares(gram[:, own, own] - sups[chunk]).max(axis=0))
            grams.append(_complement_grams(strips, padded, 1e-8))
            masks.append(padded)
        eigen, orthogonality, projection, support = map(np.sqrt, (eigen, orthogonality, projection, support))
        eigen_residual = float(np.ldexp(eigen.max(), e))
        support_residual = float(np.ldexp(support.max(), e))
        # orthogonal_complement_trivial of the strips padded here; a claim
        # with non-finite products has no Cholesky factor and fails
        complement = _all_positive_definite(grams, np.concatenate(masks))
        # the slack is the residual bound, tol * scale: the claim's own tolerance widens nothing
        ordering = _ordering_ok(result, values, value_padded, tol * scale)
    worst_pairs = {
        "eigen": _worst(eigen, labels.__getitem__),
        "orthogonality": _worst(orthogonality, lambda m: (labels[first[m]], labels[second[m]])),
        "projection": _worst(projection, labels.__getitem__),
        "support": _worst(support, labels.__getitem__),
    }

    worst = moment_deviation(K, result)
    return VerificationReport(
        eigen_residual=eigen_residual,
        complement_trivial=bool(complement),
        orthogonality_residual=float(orthogonality.max(initial=0.0)),
        projection_defect=float(projection.max()),
        support_residual=support_residual,
        ordering_ok=bool(ordering),
        oracle_ok=bool(worst <= moment_tol),
        moment_worst=float(worst),
        relations=tuple(rel.describe() for rel in result.ordering_certificate),
        tolerance=float(tol),
        moment_tolerance=float(moment_tol),
        operator_scale=float(scale),
        worst_pairs=worst_pairs,
    )
