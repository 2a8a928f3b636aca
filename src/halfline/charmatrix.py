"""Characteristic matrix of the adjointed boundary forms.

With alpha = exp(2 pi i / n) and b* the adjoint boundary coefficients, the
characteristic matrix has polynomial entries

    M[k, j](lam) = sum_r (-i alpha^(k-1) lam)^r b*[j, r],   k, j = 1..n-N,

and the characteristic determinant Delta = det M controls both the circle
radius R that the deformed contours must avoid and the denominators of the
transform kernels.  The cyclic cofactor minors det X[l, j] are determinants
of (m-1) x (m-1) windows of the doubled block matrix [[M, M], [M, M]]
anchored one step below and right of entry (l, j); they satisfy

    sum_l (-1)^((m-1)(l+j)) det X[l, j](mu) M[l, r](mu) = Delta(mu) delta_{j,r}.

Determinant coefficients are recovered by interpolation at scaled Chebyshev
points, giving explicit polynomial coefficients for root finding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .boundary import adjoint_forms
from .errors import DeltaIdenticallyZero, OnDeltaZero

__all__ = ["CharMatrix", "DeltaRoot"]

_CLUSTER_RADIUS = 1e-6
_COEFF_TOL = 1e-12


@dataclass(frozen=True)
class DeltaRoot:
    value: complex
    multiplicity: int


class CharMatrix:
    """Polynomial characteristic matrix for one half-line problem."""

    def __init__(self, n: int, b_star: np.ndarray):
        b_star = np.atleast_2d(np.asarray(b_star, dtype=complex))
        m, width = b_star.shape
        if width != n:
            raise ValueError(f"adjoint rows must have length n={n}, got {width}")
        self.n = int(n)
        self.m = int(m)
        self.alpha = np.exp(2j * np.pi / n)
        self.b_star = b_star
        # coeffs[k, j, r] = b*[j, r] * (-i alpha^k)^r with k, j zero-based
        r = np.arange(n)
        factors = (-1j * self.alpha ** np.arange(m)[:, None]) ** r[None, :]
        self.coeffs = factors[:, None, :] * b_star[None, :, :]

    @classmethod
    def from_problem(cls, problem) -> "CharMatrix":
        return cls(problem.order, adjoint_forms(problem.order, problem.boundary_matrix))

    # -- evaluation -----------------------------------------------------
    def entry(self, k: int, j: int, lam) -> np.ndarray:
        """M[k, j](lam) with 1-based k, j, vectorized over lam."""
        lam = np.asarray(lam, dtype=complex)
        return np.polynomial.polynomial.polyval(lam, self.coeffs[k - 1, j - 1])

    def eval_matrix(self, lam) -> np.ndarray:
        """Stack of matrices M(lam), shape lam.shape + (m, m)."""
        lam = np.asarray(lam, dtype=complex)
        powers = lam[..., None] ** np.arange(self.n)
        return np.einsum("...r,kjr->...kj", powers, self.coeffs)

    def delta(self, lam) -> np.ndarray:
        """Characteristic determinant Delta(lam) by direct evaluation."""
        lam = np.asarray(lam, dtype=complex)
        if self.m == 0:
            return np.ones(lam.shape, dtype=complex)
        return np.linalg.det(self.eval_matrix(lam))

    def cofactor_det(self, l: int, j: int, lam) -> np.ndarray:
        """det X[l, j](lam) for 1-based l, j; empty product is 1."""
        lam = np.asarray(lam, dtype=complex)
        if self.m <= 1:
            return np.ones(lam.shape, dtype=complex)
        m = self.m
        wrap = lambda v: (v - 1) % m + 1
        M = self.eval_matrix(lam)
        rows = [wrap(l + p) - 1 for p in range(1, m)]
        cols = [wrap(j + q) - 1 for q in range(1, m)]
        sub = M[..., rows, :][..., :, cols]
        return np.linalg.det(sub)

    # -- determinant as an explicit polynomial ----------------------------
    @cached_property
    def delta_poly(self) -> np.ndarray:
        """Coefficients of Delta in the monomial basis, low order first.

        Interpolates at deg+1 Chebyshev points; the sample radius is
        enlarged until all roots fall inside it.
        """
        # every lam^r coefficient slab of M is rank one (column j is
        # b*[j, r] times the vector (-i alpha^(k-1))^r), so determinant
        # terms repeating a power vanish and the degree is bounded by the
        # largest sum of m distinct powers, not m(n-1); fitting the larger
        # basis lets interpolation noise pose as huge spurious roots
        deg = self.m * (self.n - 1) - self.m * (self.m - 1) // 2
        if deg == 0:
            return np.asarray(self.delta(np.array([0.0 + 0.0j])), dtype=complex)
        radius = 2.0
        for _ in range(4):
            u = np.polynomial.chebyshev.chebpts1(deg + 1)
            pts = radius * u
            samples = self.delta(pts.astype(complex))
            scale = float(np.abs(samples).max())
            if scale < 1e-280:
                raise DeltaIdenticallyZero(
                    "characteristic determinant vanishes at all sample points")
            cheb = np.polynomial.chebyshev.chebfit(u, samples, deg)
            pu = np.polynomial.chebyshev.cheb2poly(cheb)
            poly = pu / radius ** np.arange(deg + 1)
            sig = np.abs(poly) * radius ** np.arange(deg + 1) > _COEFF_TOL * scale
            if not sig.any():
                raise DeltaIdenticallyZero(
                    "all interpolated determinant coefficients are negligible")
            trimmed = poly[: int(np.nonzero(sig)[0][-1]) + 1]
            if trimmed.size <= 1:
                return trimmed
            r = np.polynomial.polynomial.polyroots(trimmed)
            rmax = float(np.abs(r).max()) if r.size else 0.0
            if rmax <= radius:
                return trimmed
            radius = 2.2 * rmax
        return trimmed

    @cached_property
    def delta_roots(self) -> tuple:
        """Roots of Delta with multiplicities from 1e-6 clustering."""
        poly = self.delta_poly
        if poly.size <= 1:
            return ()
        roots = np.polynomial.polynomial.polyroots(poly)
        order = np.lexsort((roots.imag, roots.real))
        roots = roots[order]
        clusters: list[list[complex]] = []
        for z in roots:
            if clusters and abs(z - clusters[-1][-1]) < _CLUSTER_RADIUS:
                clusters[-1].append(z)
            else:
                clusters.append([z])
        return tuple(DeltaRoot(complex(np.mean(c)), len(c)) for c in clusters)

    def choose_radius(self, safety: float = 1.1) -> float:
        """Circle radius excluding every determinant zero, with floor 1."""
        rmax = max((abs(r.value) for r in self.delta_roots), default=0.0)
        return safety * max(1.0, rmax)

    def guard_delta(self, mu) -> np.ndarray:
        """Delta(mu), raising if any value sits on a numerical zero."""
        mu = np.asarray(mu, dtype=complex)
        vals = self.delta(mu)
        poly = self.delta_poly
        scale = np.polynomial.polynomial.polyval(np.abs(mu), np.abs(poly))
        bad = np.abs(vals) <= 1e-12 * np.maximum(scale, 1e-280)
        if np.any(bad):
            where = np.asarray(mu)[bad].ravel()[0]
            raise OnDeltaZero(f"determinant vanishes at lambda = {where}")
        return vals
