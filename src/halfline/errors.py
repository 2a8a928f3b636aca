"""Exception hierarchy for the halfline package.

Every error raised deliberately by this package derives from
:class:`HalflineError`, so callers can catch one type at the CLI boundary.
The subclasses are grouped by the stage of the pipeline that raises them.
"""


class HalflineError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------------------
# problem definition / validation


class WrongConditionCount(HalflineError):
    """Number of boundary forms does not match the well-posedness count."""


class RankDeficientBoundary(HalflineError):
    """Boundary coefficient matrix has linearly dependent rows."""


class ComplexCoefficientsDisallowed(HalflineError):
    """Boundary coefficients are complex but the problem was not opted in
    with ``allow_complex=True``."""


class InadmissibleDispersion(HalflineError):
    """Direction coefficient gives a half-line problem with no decaying
    solution representation (growth on the half-line for every contour)."""


class ConfigError(HalflineError):
    """Problem/run configuration could not be parsed: a configuration file,
    a command-line value or the UTM_THREADS variable.

    A message about a file line starts with ``line <k>:``.
    """


# ---------------------------------------------------------------------------
# boundary-form linear algebra


class KernelComputationFailed(HalflineError):
    """Could not produce a kernel basis of the expected dimension."""


class CompletionFailed(HalflineError):
    """Could not complete the boundary forms to an invertible system."""


class CoeffsNotInKernel(HalflineError):
    """Requested boundary derivative vector violates the boundary forms."""


class SupportMismatch(HalflineError):
    """Data of different supports were stacked: a stack shares one
    quadrature over one support."""


# ---------------------------------------------------------------------------
# characteristic matrix


class DeltaIdenticallyZero(HalflineError):
    """Characteristic determinant vanishes identically."""


class OnDeltaZero(HalflineError):
    """Transform evaluation requested at (or too close to) a zero of the
    characteristic determinant."""


# ---------------------------------------------------------------------------
# contours


class NoComponents(HalflineError):
    """No sector of the upper half plane carries a deformed contour."""


class NoDecaySector(HalflineError):
    """A ray on the real axis has no adjacent decay sector to rotate into."""


class DeformationRequired(HalflineError):
    """Time evolution requested on a contour system that still has a ray on
    the real axis."""


# ---------------------------------------------------------------------------
# quadrature


class TailBoundUnavailable(HalflineError):
    """Cannot truncate an infinite ray: no decay model and no oscillation
    frequency were supplied."""


class ToleranceNotMet(HalflineError):
    """Quadrature finished without reaching the requested tolerance.

    Carries the best value and the error estimate so callers can decide
    whether to accept the result anyway.
    """

    def __init__(self, message: str, value=None, est_error=None):
        super().__init__(message)
        self.value = value
        self.est_error = est_error


class NonpositiveX(HalflineError):
    """Spatial coordinate must be strictly positive for this operation."""
