"""Unified-transform solver and verifier for half-line evolution equations.

The package solves initial-boundary value problems

    dq/dt + a (-i d/dx)^n q = 0,    x > 0, t > 0,

with N homogeneous boundary conditions at x = 0, by building the problem's
transform pair on deformed complex contours, and certifies the construction
numerically: transform inversion, sector vanishing, polynomial remainder
structure, augmented-eigenfunction behaviour, and agreement with classical
references.
"""

from .boundary import (CompletedForms, complementary_forms,
                       concomitant_matrix, concomitant_value)
from .charmatrix import CharMatrix, DeltaRoot
from .config import RunConfig, load_config, parse_config, parse_grid
from .contours import ContourSystem, build_contours, deform_for_time
from .datum import DataStack, InitialDatum, make_datum
from .errors import (CoeffsNotInKernel, ConfigError, HalflineError,
                     InadmissibleDispersion, RankDeficientBoundary,
                     SupportMismatch, ToleranceNotMet, WrongConditionCount)
from .evolution import SolutionField, solve_grid
from .oracles import (OracleResult, fd_residual,
                      heat_dirichlet_solution, heat_neumann_solution,
                      stencil_coefficients)
from .problems import HalfLineProblem, builtin_catalog, classify, validate
from .quadrature import ExpDecay, PathSegment, QuadratureParams
from .spectral import (check_type_I, check_type_II, remainder_polynomial,
                       remainder_report, spectral_representation_check)
from .transforms import SupportTransform, TransformPair
from .verify import CheckResult, all_passed, data_trio, verify_problem

__version__ = "0.1.0"

__all__ = [
    "CompletedForms", "complementary_forms",
    "concomitant_matrix", "concomitant_value",
    "CharMatrix", "DeltaRoot",
    "RunConfig", "load_config", "parse_config", "parse_grid",
    "ContourSystem", "build_contours", "deform_for_time",
    "DataStack", "InitialDatum", "make_datum",
    "CoeffsNotInKernel", "ConfigError", "HalflineError",
    "InadmissibleDispersion", "RankDeficientBoundary", "SupportMismatch",
    "ToleranceNotMet", "WrongConditionCount",
    "SolutionField", "solve_grid",
    "OracleResult", "fd_residual",
    "heat_dirichlet_solution", "heat_neumann_solution",
    "stencil_coefficients",
    "HalfLineProblem", "builtin_catalog", "classify", "validate",
    "ExpDecay", "PathSegment", "QuadratureParams",
    "check_type_I", "check_type_II",
    "remainder_polynomial", "remainder_report",
    "spectral_representation_check",
    "SupportTransform", "TransformPair",
    "CheckResult", "all_passed", "data_trio", "verify_problem",
    "__version__",
]
