"""Diagonalization of self-adjoint and normal operators on free modules over block matrix algebras.

The algebra is a finite direct sum of full complex matrix blocks, the module
is free of finite rank over it, and operators carry algebra-valued
eigenvalues: K(x) = value * x with value a block-diagonal element rather
than a scalar. This package computes such eigensystems with unit supports,
with a machine-checkable eigenvalue ordering certificate when K is
self-adjoint, verifies claimed eigensystems independently, and ships two
closed-form constructions that exercise the corner cases.
"""

from .algebra import (
    AlgebraElement,
    AlgebraShape,
    NotSelfAdjointError,
    ShapeMismatchError,
    leq,
)
from .eigen import (
    ConvergenceError,
    HermitianEig,
    NotHermitianError,
    NotNormalError,
    eig_hermitian,
    eig_normal,
)
from .modules import (
    HilbertModule,
    ModuleElement,
    inner,
    left_action,
    orthogonal_complement_trivial,
    right_action,
)
from .operators import ModuleOperator, theta
from .diagonalize import (
    DiagonalizationResult,
    EigenPair,
    OrderRelation,
    diagonalize_normal,
    diagonalize_selfadjoint,
)
from .gallery import (
    EigenFamily,
    LadderPair,
    ProjectionLadder,
    TwoBlockGallery,
    projection_ladder,
    two_block_gallery,
)
from .verify import VerificationReport, moment_deviation, verify_eigensystem
from .io import (
    InputFormatError,
    parse_problem,
    parse_solution,
    serialize_problem,
    serialize_report,
    serialize_solution,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraShape",
    "AlgebraElement",
    "leq",
    "ShapeMismatchError",
    "NotSelfAdjointError",
    "HermitianEig",
    "eig_hermitian",
    "eig_normal",
    "ConvergenceError",
    "NotHermitianError",
    "NotNormalError",
    "HilbertModule",
    "ModuleElement",
    "inner",
    "left_action",
    "right_action",
    "orthogonal_complement_trivial",
    "ModuleOperator",
    "theta",
    "EigenPair",
    "OrderRelation",
    "DiagonalizationResult",
    "diagonalize_selfadjoint",
    "diagonalize_normal",
    "EigenFamily",
    "TwoBlockGallery",
    "two_block_gallery",
    "LadderPair",
    "ProjectionLadder",
    "projection_ladder",
    "VerificationReport",
    "verify_eigensystem",
    "moment_deviation",
    "InputFormatError",
    "parse_problem",
    "serialize_problem",
    "parse_solution",
    "serialize_solution",
    "serialize_report",
    "__version__",
]
