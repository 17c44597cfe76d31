"""Hand-built operators with known eigenstructure, used as fixtures.

Two constructions live here. The first acts on a rank-2 free module over
the 2x2 matrix algebra and carries three distinct eigenvector families for
one and the same operator, illustrating how much freedom the block-valued
eigenvalue equation leaves. The second acts on a rank-N free module over
the diagonal algebra C^N and couples the first basis vector to every other
one through a ladder of coordinate projections; its full eigenpair list can
be written down in closed form, including sub-unit supports.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

import numpy as np

from .algebra import AlgebraElement, AlgebraShape, _positive_int
from .modules import HilbertModule, ModuleElement
from .operators import ModuleOperator, theta

__all__ = [
    "EigenFamily",
    "TwoBlockGallery",
    "two_block_gallery",
    "LadderPair",
    "ProjectionLadder",
    "projection_ladder",
]


class EigenFamily(NamedTuple):
    """A named list of (vector, value) pairs for one operator.

    When right_action is False the claimed relation is K(v) = value * v
    (left action); when True it is K(v) = v * value, coordinatewise right
    multiplication. unit_vectors records whether every <v, v> = 1.
    """

    name: str
    pairs: tuple
    unit_vectors: bool
    right_action: bool


class TwoBlockGallery(NamedTuple):
    shape: AlgebraShape
    module: HilbertModule
    operator: ModuleOperator
    generators: tuple
    families: tuple


def two_block_gallery() -> TwoBlockGallery:
    """Rank-2 module over M_2(C) with K a sum of two rank-one maps.

    The generating pair (x, y) is itself an eigen family whose values
    diag(1, 9) and diag(4, 4) are incomparable in the algebra order. A
    second family consists of unit vectors with comparable values diag(1, 4)
    and diag(4, 9). A third family spans invariant submodules and satisfies
    only the right-multiplication relation; its Gram elements are not
    projections, so it sits outside the usual normalization.
    """
    shape = AlgebraShape((2,))
    module = HilbertModule(shape, 2)

    def alg(mat):
        return AlgebraElement(shape, [np.array(mat, dtype=complex)])

    def elem(first, second):
        return module.element([alg(first), alg(second)])

    x = elem([[1, 0], [0, 3]], [[0, 0], [0, 0]])
    y = elem([[0, 0], [0, 0]], [[2, 0], [0, 2]])
    operator = theta(x, x) + theta(y, y)

    scaled = EigenFamily(
        name="scaled",
        pairs=(
            (x, alg([[1, 0], [0, 9]])),
            (y, alg([[4, 0], [0, 4]])),
        ),
        unit_vectors=False,
        right_action=False,
    )
    unit = EigenFamily(
        name="unit",
        pairs=(
            (elem([[1, 0], [0, 0]], [[0, 0], [0, 1]]), alg([[1, 0], [0, 4]])),
            (elem([[0, 0], [0, 1]], [[1, 0], [0, 0]]), alg([[4, 0], [0, 9]])),
        ),
        unit_vectors=True,
        right_action=False,
    )
    invariant = EigenFamily(
        name="invariant",
        pairs=(
            (elem([[1, 0], [1, 0]], [[0, 1], [0, 1]]), alg([[1, 0], [0, 4]])),
            (elem([[0, 1], [0, 1]], [[1, 0], [1, 0]]), alg([[4, 0], [0, 9]])),
        ),
        unit_vectors=False,
        right_action=True,
    )
    return TwoBlockGallery(shape, module, operator, (x, y), (scaled, unit, invariant))


class LadderPair(NamedTuple):
    vector: ModuleElement
    value: AlgebraElement
    support: AlgebraElement


class ProjectionLadder(NamedTuple):
    shape: AlgebraShape
    module: HilbertModule
    operator: ModuleOperator
    alphas: tuple
    expected: tuple


def projection_ladder(count: int, alphas: Optional[Sequence[float]] = None) -> ProjectionLadder:
    """Coupling ladder on a rank-count module over C^count.

    The operator sends the first basis vector to sum_n alpha_n p_n e_n and
    every other basis vector e_j to alpha_j p_j e_1, where p_n is the n-th
    coordinate projection of the diagonal algebra. Its closed-form eigenpair
    list has 3*count - 2 entries: p_1 e_1 with value alpha_1 p_1, the
    normalized sums and differences p_n (e_1 +- e_n)/sqrt(2) with values
    +- alpha_n p_n, and the kernel vectors (1 - p_n) e_n for n >= 2. All
    supports are proper sub-projections and the family is orthogonal with
    trivial complement.

    alphas defaults to 2**-n for n = 1..count and must be a strictly
    decreasing list of positive reals of length count.
    """
    if isinstance(count, (int, np.integer)) and count < 2:
        raise ValueError("count must be at least 2")
    count = _positive_int(count, "count")
    if alphas is None:
        alphas = [2.0 ** -(n + 1) for n in range(count)]
    alphas = [float(a) for a in alphas]
    if len(alphas) != count:
        raise ValueError(f"need exactly {count} coupling values, got {len(alphas)}")
    if not all(np.isfinite(alphas)):
        raise ValueError("coupling values must be finite")
    if any(a <= 0 for a in alphas):
        raise ValueError("coupling values must be positive")
    if any(alphas[i] <= alphas[i + 1] for i in range(count - 1)):
        raise ValueError("coupling values must be strictly decreasing")

    shape = AlgebraShape((1,) * count)
    module = HilbertModule(shape, count)

    # block b couples coordinates 0 and b by alpha_b
    blocks = np.zeros((count, count, count))
    for b, a in enumerate(alphas):
        blocks[b, 0, b] = blocks[b, b, 0] = a
    operator = ModuleOperator(module, blocks)

    # every block has order 1: an algebra element is one number per block
    # and a module element one row of count coordinates per block; p_n is
    # row n of the identity
    def pair(rows, value, support):
        vector = ModuleElement(module, np.reshape(rows, (count, 1, count)))
        return LadderPair(vector, AlgebraElement(shape, value[:, None, None]), AlgebraElement(shape, support[:, None, None]))

    proj = np.eye(count)
    first = np.zeros((count, count))
    first[0, 0] = 1.0
    expected = [pair(first, alphas[0] * proj[0], proj[0])]
    root_half = 1.0 / np.sqrt(2.0)
    for n in range(1, count):
        for sign in (1.0, -1.0):
            rows = np.zeros((count, count))
            rows[n, 0], rows[n, n] = root_half, sign * root_half
            expected.append(pair(rows, sign * alphas[n] * proj[n], proj[n]))
    for n in range(1, count):
        rows = np.zeros((count, count))
        rows[:, n] = 1.0 - proj[n]
        expected.append(pair(rows, np.zeros(count), 1.0 - proj[n]))
    return ProjectionLadder(shape, module, operator, tuple(alphas), tuple(expected))
