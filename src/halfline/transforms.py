"""Forward and inverse transforms adapted to the boundary forms.

For a validated problem with adjointed characteristic matrix M and
determinant Delta, the forward transforms of a datum f are

    F_0[f](lam) = fhat(lam) / (2 pi),
    F_k[f](lam) = sum_l w_l(lam) fhat(alpha^(N+l-k) lam),    k = 1..N,

with alpha = exp(2 pi i / n), fhat the half-line Fourier transform over the
support, and rational weights

    w_l(lam) = sum_j (-1)^((m-1)(l+j)) det X[l,j](mu) M[1,j](lam)
               / (2 pi Delta(mu)),        mu = alpha^(N+1-k) lam.

The inverse map integrates exp(i lam x) F_k over the matching contour
components and sums.  For F = F[f] the real-line component carries the
whole of f: the sector components vanish identically for x > 0, which the
verification suite checks directly.

Numerical layout: the half-line Fourier transform is evaluated by cached
composite Gauss panels over the support, resolution chosen per batch from
max |mu|.  The panels of a level are equal, so every node is m_p + h x_k
(panel midpoint m_p, common half-width h, Gauss node x_k) and the phase
factors: exp(-i mu (m_p + h x_k)) = exp(-i mu m_p) exp(-i mu h x_k).  The
sum over the order-many nodes of each panel is then one matrix product, and
the sum over panels a row-wise dot product, so a batch costs
#mu (panels + order) complex exponentials instead of #mu panels order for
the same quadrature rule.

Every component integral runs on the engine of :mod:`halfline.quadrature`
(``component_nodes`` plus ``apply_phase``).  The real-line component
(:meth:`TransformPair.real_line_component`, which also serves the spectral
checks) is a central segment, flat or indented above the origin, plus
power-subtracted tails: the leading monomials of the integrand's
large-lambda expansion, for the inversion the first n+1 terms of
fhat ~ sum_j f(j)(0) / (i lam)^(j+1), are removed, the subtracted remainder
decays faster than any power and is summed in doubling blocks, and the
removed terms are restored exactly with generalized exponential integrals.
Sector rays off the real axis are truncated with exponential decay models;
rays on the real axis (reverse-time problems) are summed per evaluation
point in oscillation blocks with epsilon acceleration, which must converge.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict

import numpy as np

from .boundary import complementary_forms
from .charmatrix import CharMatrix
from .contours import build_contours
from .errors import NonpositiveX, ToleranceNotMet
from .problems import validate
from .quadrature import (ExpDecay, PathSegment, QuadratureParams,
                         apply_phase, component_nodes, integrate_segment,
                         ray_monomial_tail, segment_nodes,
                         tail_subtraction_coeffs)

__all__ = ["SupportTransform", "TransformPair"]

# cap on the phase-matrix entries per chunk, mu x (panels + order): a
# chunk's two complex temporaries stay near 16 MB each; 4M-entry chunks ran
# about 10% slower on a 2-core x86 machine
_CHUNK_BUDGET = 1_000_000
# highest resolution level: |mu| up to base * 2**_MAX_LEVEL is resolved
_MAX_LEVEL = 16
# (datum, derivative) transforms a TransformPair keeps, least recently used
# evicted first; a verify_problem uses up to eight (four data, derivatives
# 0 and n)
_HATS_MAX = 32


class SupportTransform:
    """Cached quadrature for int_0^L exp(-i mu x) g(x) dx over a compact
    support, vectorized over mu with resolution levels in powers of two.

    Level l splits [0, L] into equal Gauss-Legendre panels, enough for
    |mu| <= base * 2**l.  Because the panels are equal, the rule factors
    per panel p with midpoint m_p and common half-width h:

        fhat(mu) = sum_p exp(-i mu m_p) sum_k exp(-i mu h x_k) w_k h g(m_p + h x_k).

    The inner sum is one matrix product over the Gauss nodes x_k and the
    outer one a row-wise dot product over panels.  The equal-panel
    invariant is what makes the node phases exp(-i mu h x_k) common to all
    panels; a non-uniform panel layout would break the factorization.

    ``base_rate`` sets the level-0 resolution floor in rad per unit x, so
    integrands with internal structure sharper than the lowest mu (a narrow
    bump, say) stay resolved at every level.  A batch whose |mu| exceeds
    the top level raises :class:`ToleranceNotMet`.  The per-level cache is
    filled under a lock, so threads sharing the transform evaluate g once
    per level.
    """

    def __init__(self, g, support: float, params: QuadratureParams,
                 base_rate: float = 0.0):
        self.g = g
        self.L = float(support)
        self.order = params.max_order
        self.density = params.density
        self.base = max(64.0 / self.L, float(base_rate))
        self._levels: dict[int, tuple] = {}
        self._lock = threading.Lock()

    def _level_for(self, mu_max: float) -> int:
        if mu_max <= self.base:
            return 0
        level = int(math.ceil(math.log2(mu_max / self.base)))
        if level > _MAX_LEVEL:
            raise ToleranceNotMet(
                f"|mu| up to {mu_max:.6g} exceeds the top resolution level "
                f"{_MAX_LEVEL} (|mu| <= {self.base * 2 ** _MAX_LEVEL:.6g})")
        return level

    def _nodes(self, level: int):
        """(panel midpoints, scaled Gauss nodes h x_k, weights w_k h g as
        panels x order) for one level."""
        with self._lock:
            if level not in self._levels:
                cap = self.base * 2 ** level
                panels = int(math.ceil(cap * self.L * self.density / (2 * math.pi * self.order)))
                panels = max(panels, 2)
                x, w = np.polynomial.legendre.leggauss(self.order)
                edges = np.linspace(0.0, self.L, panels + 1)
                half = 0.5 * (edges[1] - edges[0])
                mid = 0.5 * (edges[:-1] + edges[1:])
                nodes = (mid[:, None] + half * x[None, :]).ravel()
                wg = (half * w)[None, :] * self.g(nodes).reshape(panels, self.order)
                self._levels[level] = (mid, half * x, wg)
            return self._levels[level]

    def __call__(self, mu) -> np.ndarray:
        mu = np.atleast_1d(np.asarray(mu, dtype=complex))
        if mu.size == 0:
            return np.zeros(0, dtype=complex)
        mid, hx, wg = self._nodes(self._level_for(float(np.abs(mu).max())))
        out = np.empty(mu.shape, dtype=complex)
        flat = mu.ravel()
        res = out.ravel()
        chunk = max(64, _CHUNK_BUDGET // (mid.size + hx.size))
        for i in range(0, flat.size, chunk):
            blk = -1j * flat[i:i + chunk]
            inner = np.exp(np.multiply.outer(blk, hx)) @ wg.T
            outer = np.multiply.outer(blk, mid)
            np.exp(outer, out=outer)
            outer *= inner
            # sum() reduces rows pairwise: the rounding error grows with
            # log(panels), not with panels as in a running sum
            res[i:i + chunk] = outer.sum(axis=1)
        return out


def _real_axis_monomial_tails(r0: float, xs: np.ndarray, power: int) -> np.ndarray:
    """int exp(i lam x) lam^(-power) over the real line outside [-r0, r0],
    one exponential integral per x.

    The left ray is the mirror of the right one: for real x > 0,
    E_p(conj z) = conj E_p(z), so the outward tail along theta = pi equals
    (-1)^(1-p) conj of the tail along theta = 0.
    """
    right = np.array([ray_monomial_tail(0.0, r0, float(x), power) for x in xs])
    return right - (-1.0) ** (1 - power) * np.conj(right)


class TransformPair:
    """Forward/inverse transform machinery for one half-line problem."""

    def __init__(self, problem, params: QuadratureParams | None = None, *,
                 safety: float = 1.1, delta: float | None = None):
        self.problem = validate(problem)
        self.n = problem.order
        self.a = problem.a
        self.N = problem.count
        self.m = self.n - self.N
        self.forms = complementary_forms(self.n, problem.boundary_matrix)
        self.cm = CharMatrix(self.n, self.forms.B_star)
        self.R = self.cm.choose_radius(safety)
        self.contours = build_contours(problem, self.R, delta)
        self.params = params or QuadratureParams()
        self.alpha = np.exp(2j * np.pi / self.n)
        self._hats: OrderedDict[tuple, SupportTransform] = OrderedDict()
        self._hats_lock = threading.Lock()

    # -- half-line Fourier transform --------------------------------------
    def fhat(self, datum, mu, deriv: int = 0) -> np.ndarray:
        # an entry holds the datum through its bound g, so a live key's
        # id cannot be reused by another datum
        key = (id(datum), deriv)
        with self._hats_lock:
            hat = self._hats.get(key)
            if hat is None:
                g = datum.value if deriv == 0 else datum.derivative_function(deriv)
                # each derivative sharpens the integrand's endpoint behaviour,
                # so the panel floor has to grow with the order to hold accuracy
                rate = getattr(datum, "bandwidth", 0.0) * (1.0 + deriv)
                hat = self._hats[key] = SupportTransform(
                    g, datum.support, self.params, base_rate=rate)
                if len(self._hats) > _HATS_MAX:
                    self._hats.popitem(last=False)
            else:
                self._hats.move_to_end(key)
        return hat(mu)

    def fhat_applied(self, datum, mu) -> np.ndarray:
        """Transform of (-i d/dx)^n f, the spatial operator applied to f."""
        return (-1j) ** self.n * self.fhat(datum, mu, deriv=self.n)

    # -- kernels ----------------------------------------------------------
    def kernel_weights(self, k: int, lam):
        """Argument multipliers alpha^(N+l-k) and weights w_l(lam), l=1..m."""
        if not 1 <= k <= self.N:
            raise ValueError(f"sector index k must be in 1..{self.N}, got {k}")
        lam = np.atleast_1d(np.asarray(lam, dtype=complex))
        mu = self.alpha ** (self.N + 1 - k) * lam
        dl = self.cm.guard_delta(mu)
        mults = []
        weights = []
        for l in range(1, self.m + 1):
            acc = np.zeros(lam.shape, dtype=complex)
            for j in range(1, self.m + 1):
                sign = (-1.0) ** ((self.m - 1) * (l + j))
                acc += sign * self.cm.cofactor_det(l, j, mu) * self.cm.entry(1, j, lam)
            weights.append(acc / (2.0 * np.pi * dl))
            mults.append(self.alpha ** (self.N + l - k))
        return np.array(mults), np.array(weights)

    def kernel(self, k: int, lam, x) -> np.ndarray:
        """Inverse-side kernel value at (lam, x); k = 0 is exp(-i lam x)/2pi."""
        lam = np.asarray(lam, dtype=complex)
        x = np.asarray(x, dtype=float)
        if k == 0:
            return np.exp(-1j * lam * x) / (2.0 * np.pi)
        mults, weights = self.kernel_weights(k, lam)
        out = np.zeros(np.broadcast(lam, x).shape, dtype=complex)
        for mult, w in zip(mults, weights):
            out = out + w * np.exp(-1j * mult * lam * x)
        return out

    def forward(self, datum, k: int, lam, *, applied: bool = False) -> np.ndarray:
        """F_k[f](lam), or F_k[Sf](lam) with ``applied=True``."""
        lam = np.atleast_1d(np.asarray(lam, dtype=complex))
        hat = self.fhat_applied if applied else (lambda d, mu: self.fhat(d, mu))
        if k == 0:
            return hat(datum, lam) / (2.0 * np.pi)
        mults, weights = self.kernel_weights(k, lam)
        out = np.zeros(lam.shape, dtype=complex)
        for mult, w in zip(mults, weights):
            out += w * hat(datum, mult * lam)
        return out

    # -- real-line component ----------------------------------------------
    @property
    def lambda_center(self) -> float:
        return max(2.0, 1.25 * self.R)

    def gamma0_tail_scan(self, G, xs: np.ndarray, rate: float):
        """Doubling-block tails of int exp(i lam x) G(lam) over |lam| > lambda_center
        on the real line, vectorized over xs.

        ``G`` must decay faster than any tracked power (already subtracted)
        and keep the real-data symmetry G(-lam) = conj(G(lam)) on the real
        line, which folds the left tail into the right one.  Raises
        ToleranceNotMet if the blocks have not become negligible within the
        block budget.
        """
        tol = self.params.abs_tol
        out = np.zeros(xs.size, dtype=complex)
        prev = math.inf
        a = self.lambda_center
        for _ in range(18):
            seg = PathSegment.ray(0.0, 0.0, a, 2.0 * a)
            lam, w = segment_nodes(seg, self.params, osc=lambda u: rate)
            block = apply_phase(xs, lam, w * G(lam))
            block = block + np.conj(block)
            out += block
            mag = float(np.abs(block).max())
            a *= 2.0
            # a small block that is also collapsing against the previous
            # one bounds the remaining tail; two small in a row works too
            if mag < tol / 8.0 and (mag <= 0.25 * prev or prev < tol / 8.0):
                return out
            prev = mag
        raise ToleranceNotMet(
            f"real-line tail still {mag:.2e} at |lambda| = {a:.3g}",
            value=out, est_error=mag)

    def real_line_component(self, G, xs: np.ndarray, rate: float, *,
                            monomials=(), indented: bool = False) -> np.ndarray:
        """Integral of exp(i lam x) I(lam) along the real line, for x in xs.

        The integrand I is ``G``, or the sum of ``monomials`` (pairs (p, b)
        standing for b lam^(-p)) when ``G`` is None.  I minus that sum must
        decay faster than any power and keep the real-data symmetry
        I(-lam) = conj(I(lam)).  ``rate`` bounds the phase rate.  The
        central segment |lam| < lambda_center runs along the axis, or around
        the semicircular indentation above the origin when ``indented`` (I
        has a pole there).  Beyond it, the rest of I is summed by
        :meth:`gamma0_tail_scan` and the monomials exactly with exponential
        integrals.
        """
        lc = self.lambda_center
        if indented:
            d = self.contours.delta
            segs = (PathSegment.ray(-lc, 0.0, 0.0, lc - d),
                    PathSegment.arc(0.0, d, math.pi, 0.0),
                    PathSegment.ray(d, 0.0, 0.0, lc - d))
            central = max(rate, 4.0 / d)
        else:
            segs = (PathSegment.ray(-lc, 0.0, 0.0, 2.0 * lc),)
            central = rate
        lam, w, _ = component_nodes(segs, self.params, lambda seg: lambda u: central)

        def mono(lam):
            return sum(b * lam ** (-float(p)) for p, b in monomials)

        vals = apply_phase(xs, lam, w * (mono if G is None else G)(lam))
        if G is not None:
            vals += self.gamma0_tail_scan(lambda lam: G(lam) - mono(lam), xs, rate)
        for p, b in monomials:
            vals += b * _real_axis_monomial_tails(lc, xs, p)
        return vals

    def _gamma0_piece(self, datum, xs: np.ndarray) -> np.ndarray:
        """Real-line component of the inversion of F_0[f] at t = 0.

        The integrand is entire, so the central segment runs along the real
        axis; the first n+1 terms of fhat ~ sum_j f(j)(0) / (i lam)^(j+1)
        are the monomials whose tails are restored exactly.
        """
        coeffs = tail_subtraction_coeffs(datum, self.n + 1)
        monomials = [(j + 1, c * (1j) ** (-(j + 1.0)) / (2 * np.pi))
                     for j, c in enumerate(coeffs) if c != 0.0]
        return self.real_line_component(
            lambda lam: self.fhat(datum, lam) / (2 * np.pi), xs,
            float(xs.max()) + datum.support, monomials=monomials)

    # -- sector components --------------------------------------------------
    @property
    def pole_gap(self) -> float:
        """Distance from the junction circle |lam| = R to the outermost
        zero of the determinant, where the kernel weights have poles."""
        rmax = max((abs(r.value) for r in self.cm.delta_roots), default=0.0)
        return max(self.R - rmax, 0.05 * self.R)

    def junction_osc(self, seg: PathSegment, base_rate: float):
        """Phase-rate bound including the weight poles just inside the
        junction circle; panels near the junction shrink to resolve them."""
        gap = self.pole_gap
        if seg.kind == "arc":
            rate = seg.radius * base_rate + 8.0 * seg.radius / gap
            return lambda u: rate
        r0 = seg.r0
        return lambda u: base_rate + 8.0 / (gap + max(u - r0, 0.0))

    def sector_component(self, datum, k: int, xs: np.ndarray, *,
                         applied: bool = False, inv_power: int = 0) -> np.ndarray:
        """Integral of exp(i lam x) lam^(-inv_power) F_k over component k.

        ``applied=True`` replaces F_k[f] with F_k[Sf].  Rays off the real
        axis are truncated where an exponential envelope from the junction
        value falls below tolerance; rays on the real axis are summed per
        point with oscillation blocks and epsilon acceleration, and raise
        ToleranceNotMet when the acceleration does not converge.
        """
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        x_min = float(xs.min())
        rate = float(xs.max()) + datum.support

        def F(lam):
            out = self.forward(datum, k, lam, applied=applied)
            return out * lam ** (-float(inv_power)) if inv_power else out

        def decay(seg):
            jun = np.array([seg.point(seg.r0)], dtype=complex)
            scale = max(float(np.abs(F(jun)).max()), 1e-12)
            return ExpDecay.linear(x_min * math.sin(seg.angle), seg.r0,
                                   math.log(scale))

        lam, w, axis_rays = component_nodes(
            self.contours.gammas[k - 1], self.params,
            lambda seg: self.junction_osc(seg, rate), decay)
        vals = apply_phase(xs, lam, w * F(lam))
        for seg in axis_rays:
            for i, x in enumerate(xs):
                g = lambda lam: np.exp(1j * lam * x) * F(lam)
                vals[i] += integrate_segment(
                    g, seg, self.params,
                    osc=self.junction_osc(seg, x + datum.support)).require()
        return vals

    def gamma_k_vanishing(self, datum, k: int, xs) -> np.ndarray:
        """|integral over the k-th component|, expected ~0 for x > 0."""
        return np.abs(self.sector_component(datum, k, xs))

    # -- public inversion --------------------------------------------------
    def reconstruct(self, datum, xs) -> np.ndarray:
        """Invert the forward transforms of ``datum`` at the points xs > 0."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        if xs.min() <= 0.0:
            raise NonpositiveX("reconstruction requires x > 0")
        vals = self._gamma0_piece(datum, xs)
        for k in range(1, self.N + 1):
            vals += self.sector_component(datum, k, xs)
        return vals
