"""Half-line initial-boundary value problems and their classification.

A problem is the evolution equation

    dq/dt + a (-i d/dx)^n q = 0,      x > 0, t > 0,

with n >= 2, |a| = 1, together with N homogeneous boundary forms at x = 0,

    B_j q = sum_k b[j, k] q(k)(0, t) = 0,

where N is forced by the dispersion relation: N = n/2 for n even, and for
n odd N = (n+1)/2 when a = i and N = (n-1)/2 when a = -i.  Admissibility
requires Re(a) >= 0 for even n and a = +-i for odd n; otherwise the
solution representation grows in every direction of the upper half plane.
A problem holds (n, a, B) and nothing else: the boundary jet of its default
datum, ``datum_kernel``, is derived from B on first access.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .boundary import maximal_kernel
from .errors import (
    ComplexCoefficientsDisallowed,
    InadmissibleDispersion,
    RankDeficientBoundary,
    WrongConditionCount,
)

__all__ = ["WellPosedness", "classify", "HalfLineProblem", "validate", "builtin_catalog"]

_A_TOL = 1e-12


@dataclass(frozen=True)
class WellPosedness:
    """Outcome of :func:`classify`."""

    order: int
    a: complex
    count: int
    admissible: bool
    reason: str = ""


def classify(n: int, a: complex) -> WellPosedness:
    """Boundary-condition count and admissibility for (n, a)."""
    if int(n) != n or n < 2:
        raise WrongConditionCount(f"spatial order must be an integer >= 2, got {n}")
    n = int(n)
    a = complex(a)
    if abs(abs(a) - 1.0) > 1e-9:
        return WellPosedness(n, a, 0, False, "|a| must equal 1")
    if n % 2 == 0:
        count = n // 2
        if a.real >= -_A_TOL:
            return WellPosedness(n, a, count, True)
        return WellPosedness(n, a, count, False, "Re(a) < 0 for even order")
    if abs(a - 1j) < _A_TOL:
        return WellPosedness(n, a, (n + 1) // 2, True)
    if abs(a + 1j) < _A_TOL:
        return WellPosedness(n, a, (n - 1) // 2, True)
    return WellPosedness(n, a, 0, False, "odd order requires a = +-i")


@dataclass(frozen=True, eq=False)
class HalfLineProblem:
    """Evolution order, direction coefficient and boundary-form matrix."""

    order: int
    a: complex
    boundary_matrix: np.ndarray
    label: str = ""
    allow_complex: bool = False

    def __post_init__(self):
        mat = np.atleast_2d(np.asarray(self.boundary_matrix, dtype=complex))
        object.__setattr__(self, "boundary_matrix", mat)
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "order", int(self.order))

    @property
    def count(self) -> int:
        return self.boundary_matrix.shape[0]

    @cached_property
    def datum_kernel(self) -> tuple:
        """Boundary jet of the default datum: the
        :func:`~halfline.boundary.maximal_kernel` of the boundary forms."""
        return maximal_kernel(self.boundary_matrix)


def validate(problem: HalfLineProblem) -> HalfLineProblem:
    """Check admissibility, condition count, realness and row rank.

    Returns the problem unchanged on success so calls can be chained.
    """
    n, a, B = problem.order, problem.a, problem.boundary_matrix
    cls = classify(n, a)
    if not cls.admissible:
        raise InadmissibleDispersion(
            f"(n={n}, a={a}) is not admissible: {cls.reason}")
    if B.shape != (cls.count, n):
        raise WrongConditionCount(
            f"expected {cls.count} boundary forms of length {n}, got shape {B.shape}")
    if not problem.allow_complex and np.abs(B.imag).max() > 0.0:
        raise ComplexCoefficientsDisallowed(
            "complex boundary coefficients require allow_complex=True")
    if np.linalg.matrix_rank(B, tol=1e-12 * max(1.0, np.abs(B).max())) < cls.count:
        raise RankDeficientBoundary("boundary forms are linearly dependent")
    return problem


def builtin_catalog() -> dict:
    """The verification suite's named problems, each (n, a, B) alone."""
    problems = [
        (3, -1j, [[1.0, 0.0, 0.0]], "lkdv-dirichlet"),
        (3, 1j, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "reverse-lkdv"),
        (2, 1.0, [[1.0, 0.0]], "heat-dirichlet"),
        (2, 1.0, [[0.0, 1.0]], "heat-neumann"),
        (4, np.exp(-1j * np.pi / 6), [[0.0, 0.0, 3.0, 1.0], [-2.0, 1.0, 0.0, 0.0]],
         "robin-4"),
    ]
    return {label: validate(HalfLineProblem(n, a, B, label=label))
            for n, a, B, label in problems}
