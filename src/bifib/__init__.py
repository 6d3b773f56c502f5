"""Exact symbolic kernel for bivariate Fibonacci and Lucas polynomials.

Everything is computed over exact rationals: sparse polynomial arithmetic,
the U/V sequences by recurrence and by closed form, shift-operator calculus,
the four sequence bases with exact determinant and decomposition solver,
and the five integer coefficient triangles generated three independent ways.
"""

from .bases import (
    BasisFamily,
    BasisSpec,
    Decomposition,
    EXPECTED_DETERMINANTS,
    RationalMatrix,
    build_basis,
    coordinate_matrix,
    decompose,
    det_by_column_reduction,
)
from .coefficients import (
    CoeffTriangle,
    CrossCheckReport,
    Family,
    closed_triangle,
    closed_value,
    cross_check,
    oracle_triangle,
    recurrence_triangle,
)
from .errors import (
    BifibError,
    DimensionError,
    DomainError,
    IntegralityViolation,
    MalformedElement,
    SingularMatrixError,
)
from .operators import build_family
from .poly import (
    BivarPoly,
    ONE,
    X,
    Y,
    ZERO,
    canonical_monomials,
)
from .report import CheckResult
from .sequences import (
    SequenceCache,
    SequenceKind,
    u_poly,
    u_poly_closed,
    v_poly,
    v_poly_closed,
)
from .specializations import (
    chebyshev_t,
    chebyshev_u,
    evaluate_numbers,
)

__version__ = "0.1.0"

__all__ = [
    "BasisFamily",
    "BasisSpec",
    "BifibError",
    "BivarPoly",
    "CheckResult",
    "CoeffTriangle",
    "CrossCheckReport",
    "Decomposition",
    "DimensionError",
    "DomainError",
    "EXPECTED_DETERMINANTS",
    "Family",
    "IntegralityViolation",
    "MalformedElement",
    "ONE",
    "RationalMatrix",
    "SequenceCache",
    "SequenceKind",
    "SingularMatrixError",
    "X",
    "Y",
    "ZERO",
    "build_basis",
    "build_family",
    "canonical_monomials",
    "chebyshev_t",
    "chebyshev_u",
    "closed_triangle",
    "closed_value",
    "coordinate_matrix",
    "cross_check",
    "decompose",
    "det_by_column_reduction",
    "evaluate_numbers",
    "oracle_triangle",
    "recurrence_triangle",
    "u_poly",
    "u_poly_closed",
    "v_poly",
    "v_poly_closed",
    "__version__",
]
