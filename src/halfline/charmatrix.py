"""Characteristic matrix of the adjointed boundary forms.

With alpha = exp(2 pi i / n) and b* the adjoint boundary coefficients, the
characteristic matrix has polynomial entries

    M[k, j](lam) = sum_r (-i alpha^(k-1) lam)^r b*[j, r],   k, j = 1..n-N,

and the characteristic determinant Delta = det M controls both the circle
radius R that the deformed contours must avoid and the denominators of the
transform kernels.  The cyclic cofactor minors det X[l, j] are determinants
of (m-1) x (m-1) windows of the doubled block matrix [[M, M], [M, M]]
anchored one step below and right of entry (l, j).  Signed and
transposed, they form the cofactor matrix A[j, l] = (-1)^((m-1)(l+j))
det X[l, j] of :meth:`CharMatrix.cofactors`, with

    A(mu) M(mu) = Delta(mu) I,   that is   A = Delta M^-1.

The coefficients of Delta, for root finding, are expanded from those of M by
the Leibniz formula: a signed sum, over the permutations of the columns, of
products of entry polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import permutations

import numpy as np

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
        return np.linalg.det(self.eval_matrix(lam))

    def cofactors(self, lam) -> np.ndarray:
        """Signed cofactor matrices A(lam), shape lam.shape + (m, m), with
        A[j-1, l-1] = (-1)^((m-1)(l+j)) det X[l, j](lam) for 1-based l, j,
        so that A(lam) M(lam) = Delta(lam) I.

        All m^2 windows are cut from one evaluation of M; for m = 1 each
        window is 0 x 0 and its determinant is 1.
        """
        m = self.m
        idx = np.arange(m)
        shift = (idx[:, None] + np.arange(1, m)) % m
        # windows[..., j, l] = X[l, j]: rows shift[l], columns shift[j]
        windows = self.eval_matrix(lam)[..., shift[None, :, :, None],
                                        shift[:, None, None, :]]
        return (-1.0) ** ((m - 1) * (idx[:, None] + idx)) * np.linalg.det(windows)

    def cofactor_det(self, l: int, j: int, lam) -> np.ndarray:
        """det X[l, j](lam) for 1-based l, j; empty product is 1."""
        sign = (-1.0) ** ((self.m - 1) * (l + j))
        return sign * self.cofactors(lam)[..., j - 1, l - 1]

    # -- determinant as an explicit polynomial ----------------------------
    @cached_property
    def delta_poly(self) -> np.ndarray:
        """Coefficients of Delta in the monomial basis, low order first,
        expanded over the permutations of M's coefficient arrays."""
        m = self.m
        poly = np.zeros(m * (self.n - 1) + 1, dtype=complex)
        bound = np.zeros(poly.size)
        for perm in permutations(range(m)):
            inversions = sum(p > q for i, p in enumerate(perm) for q in perm[i + 1:])
            rows = [self.coeffs[k, j] for k, j in enumerate(perm)]
            poly += (-1) ** inversions * reduce(np.convolve, rows)
            bound += reduce(np.convolve, np.abs(rows))
        # every lam^r coefficient slab of M is rank one (column j is
        # b*[j, r] times the vector (-i alpha^(k-1))^r), so determinant
        # terms repeating a power cancel and the degree is bounded by the
        # largest sum of m distinct powers, not m(n-1)
        deg = m * (self.n - 1) - m * (m - 1) // 2
        # a coefficient negligible next to the largest term of the expansion
        # is noise, whether cancellation in the sum or rounding already in
        # b* (a row-reduced 0.3 - 0.1 * 3): at the high end it is dropped,
        # at the low end zeroed, so no spurious root far out appears and a
        # root at the origin stays exact instead of spreading by eps^(1/mult)
        sig = np.abs(poly[:deg + 1]) > _COEFF_TOL * bound[:deg + 1].max()
        if not sig.any():
            raise DeltaIdenticallyZero(
                "every determinant coefficient cancels to rounding")
        low, high = np.flatnonzero(sig)[[0, -1]]
        poly = poly[:high + 1]
        poly[:low] = 0.0
        return poly

    @cached_property
    def delta_roots(self) -> tuple:
        """Roots of Delta with multiplicities from 1e-6 clustering; the
        zeroed low-order coefficients of :attr:`delta_poly` give the root at
        the origin and its multiplicity."""
        poly = self.delta_poly
        if poly.size <= 1:
            return ()
        low = int(np.flatnonzero(poly)[0])
        roots = np.concatenate([np.zeros(low, dtype=complex),
                                np.polynomial.polynomial.polyroots(poly[low:])])
        order = np.lexsort((roots.imag, roots.real))
        roots = roots[order]
        clusters: list[list[complex]] = []
        for z in roots:
            if clusters and abs(z - clusters[-1][-1]) < _CLUSTER_RADIUS:
                clusters[-1].append(z)
            else:
                clusters.append([z])
        return tuple(DeltaRoot(complex(np.mean(c)), len(c)) for c in clusters)

    def choose_radius(self) -> float:
        """Circle radius excluding every determinant zero: 1.1 times the
        largest root modulus, with floor 1.1."""
        rmax = max((abs(r.value) for r in self.delta_roots), default=0.0)
        return 1.1 * max(1.0, rmax)

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
