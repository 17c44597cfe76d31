"""Independent checks on a claimed eigensystem.

verify_eigensystem recomputes every claim from scratch: eigen-equation
residuals, triviality of the orthogonal complement, pairwise orthogonality,
projection quality of the supports, the support identity value * support =
value, and the order relations of the certificate. No clause calls the
eigensolver it audits. Per algebra block the result holds the claimed
vectors stacked into one matrix V, so the products V K - D V and V V* hold
every eigen, orthogonality and projection residual at once; the operator
scale comes from a power iteration, and rank and order are decided by one
Cholesky factorization per block order. The moment oracle checks spectrum
preservation without ever eigendecomposing: it compares traces of
operator powers against traces of powers of the compressed values, so a
wrong spectrum cannot hide behind a consistent-looking eigenbasis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import ShapeMismatchError, _all_above, _norm_lower_bound
from .diagonalize import DiagonalizationResult
from .eigen import _hermitian_defect, _times_power_of_two
from .modules import orthogonal_complement_trivial
from .operators import ModuleOperator

__all__ = [
    "VerificationReport",
    "verify_eigensystem",
    "moment_deviation",
]

# moment_deviation compares the traces of the powers 1 .. _MAX_MOMENT
_MAX_MOMENT = 6


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


def _ordering_ok(result: DiagonalizationResult, order_tol: float) -> bool:
    """Whether every certificate relation holds as ``leq(lhs, rhs, tol=order_tol)``.

    All relations are decided at once: per block a stack of ``rhs - lhs``
    from the result's value stacks, per block order one Cholesky
    factorization. A relation naming a label with no pair, or a value that
    is not self-adjoint, fails the clause.
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
    padded = [np.concatenate([v, np.zeros_like(v[:1])]) for v in result.values]
    return _all_above([v[rhs] - v[lhs] for v in padded], order_tol)


def _frobenius(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix in a stack (the last two axes)."""
    return np.sqrt((np.abs(stack) ** 2).sum(axis=(-2, -1)))


def _worst(residuals: np.ndarray, names: list):
    """The name of the largest residual; None when there is none or it is 0."""
    if not residuals.size:
        return None
    m = int(np.argmax(residuals))
    return None if residuals[m] == 0.0 else names[m]


def moment_deviation(K: ModuleOperator, result: DiagonalizationResult) -> float:
    """Worst trace-of-power deviation over all moments and blocks.

    For block b and power p up to _MAX_MOMENT it compares ``tr K_b^p`` with
    the sum of ``tr c^p`` over the compressed values ``c = s v s`` of the
    pairs, relative to ``||K_b||_F ||K_b^(p-1)||_F``. That bound on ``|tr K_b^p|``
    (Cauchy-Schwarz) comes from K alone and scales like ``K^p``, so the
    deviation carries no units; where it is 0 only exact equality passes.
    Each block and its values enter scaled by the same exact power of two.
    """
    worst = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for b, blk in enumerate(K.blocks):
            e = math.frexp(float(np.abs(blk).max()))[1]
            flat = _times_power_of_two(blk, -e)
            sups = result.supports[b]
            compressed = sups @ _times_power_of_two(result.values[b], -e) @ sups
            flat_norm = float(np.linalg.norm(flat))
            below = np.eye(len(flat))  # K_b^(p-1)
            power, compressed_power = flat, compressed
            for _ in range(_MAX_MOMENT):
                lhs = complex(np.trace(power))
                rhs = complex(np.trace(compressed_power, axis1=1, axis2=2).sum())
                diff = abs(lhs - rhs)
                bound = flat_norm * float(np.linalg.norm(below))
                if math.isnan(diff) or (bound == 0.0 and diff > 0.0):
                    return math.inf
                if bound > 0.0:
                    worst = max(worst, diff / bound)
                below, power = power, power @ flat
                compressed_power = compressed_power @ compressed
    return worst


def verify_eigensystem(
    K: ModuleOperator,
    result: DiagonalizationResult,
    tol: float = 1e-9,
    moment_tol: float = 1e-7,
) -> VerificationReport:
    if not (0.0 < tol < 1.0 and 0.0 < moment_tol < 1.0 and 0.0 < result.tolerance_used < 1.0):
        raise ValueError("tol, moment_tol and result.tolerance_used must be in (0, 1)")
    if result.module != K.module:
        raise ShapeMismatchError("the result and the operator live on different modules")
    labels = result.pair_labels
    count = len(labels)
    scale = _norm_lower_bound(K.blocks)

    # per pair (per pair of pairs i < j for orthogonality), the largest
    # Frobenius norm over the blocks; K and the values enter scaled by 2**-e,
    # exactly, so the eigen and support residuals are formed near unit size
    e = math.frexp(K.entrywise_max())[1]
    eigen = np.zeros(count)
    projection = np.zeros(count)
    support = np.zeros(count)
    own = np.arange(count)
    above = np.triu_indices(count, 1)
    orthogonality = np.zeros(above[0].size)
    with np.errstate(over="ignore", invalid="ignore"):
        for b, k in enumerate(K.module.shape.block_sizes):
            strips, sups = result.vectors[b], result.supports[b]
            vecs = strips.reshape(count * k, -1)
            vals = _times_power_of_two(result.values[b], -e)
            image = (vecs @ _times_power_of_two(K.blocks[b], -e)).reshape(count, k, -1)
            eigen = np.maximum(eigen, _frobenius(image - vals @ strips))
            # gram[i, j] is the k x k block <x_i, x_j>
            gram = (vecs @ vecs.conj().T).reshape(count, k, count, k).swapaxes(1, 2)
            orthogonality = np.maximum(orthogonality, _frobenius(gram[above]))
            projection = np.maximum.reduce([
                projection,
                _frobenius(gram[own, own] - sups),
                _frobenius(sups - sups.conj().swapaxes(1, 2)),
                _frobenius(sups @ sups - sups),
            ])
            support = np.maximum(support, _frobenius(vals @ sups - vals))
        eigen_residual = float(np.ldexp(eigen.max(), e))
        support_residual = float(np.ldexp(support.max(), e))
        # a claim with non-finite products has no Cholesky factor and fails
        complement = orthogonal_complement_trivial(result.vectors, tol=1e-8)
        ordering = _ordering_ok(result, max(tol, result.tolerance_used) * scale)
    worst_pairs = {
        "eigen": _worst(eigen, labels),
        "orthogonality": _worst(orthogonality, [(labels[i], labels[j]) for i, j in zip(*above)]),
        "projection": _worst(projection, labels),
        "support": _worst(support, labels),
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
