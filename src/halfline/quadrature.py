"""Deterministic contour quadrature on rays and arcs.

The integration strategy is composite Gauss-Legendre with panel lengths
chosen from a caller-supplied bound on the local phase rate, so that each
panel holds a fixed number of nodes per oscillation wavelength.  Infinite
rays are truncated in one of two ways:

* with an :class:`ExpDecay` envelope model, at the radius where the model
  guarantees the tail is below a tenth of the absolute tolerance
  (:func:`segment_nodes`);
* without one, by summing half-period blocks of the dominant oscillation
  and accelerating the partial sums with Wynn's epsilon algorithm, which
  converges for integrands with algebraically decaying envelopes
  (:func:`integrate_segment`).

Every component integral of the transform pair, int exp(i lam x) F(lam)
over the real line or a sector boundary, runs on one engine:
:func:`component_nodes` discretizes a component's arcs, finite rays and
off-axis infinite rays (each caller supplies its phase-rate and envelope
models) and hands back the infinite rays on the real axis, whose tails the
caller sums exactly or by acceleration; :func:`apply_phase` then evaluates
exp(i x lam) @ (w F) for all x at once.

Everything is deterministic: no randomness, and identical inputs produce
identical node sequences.  Error estimates come from comparing each panel
at the working Gauss order against half that order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath
import numpy as np

from .errors import NonpositiveX, TailBoundUnavailable, ToleranceNotMet

__all__ = [
    "QuadratureParams",
    "PathSegment",
    "ExpDecay",
    "IntegralResult",
    "segment_nodes",
    "component_nodes",
    "apply_phase",
    "integrate_segment",
    "wynn_epsilon",
    "ray_monomial_tail",
    "tail_subtraction_coeffs",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class QuadratureParams:
    """Tolerances and discretization controls.

    ``density`` is the number of Gauss nodes per oscillation wavelength;
    8 puts composite Gauss-Legendre of order >= 16 well past the resolution
    threshold, with errors near roundoff.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-11
    density: float = 8.0
    max_order: int = 24
    max_nodes: int = 400_000
    max_blocks: int = 400
    max_refine: int = 4


@dataclass(frozen=True)
class PathSegment:
    """A ray ``base + r e^{i angle}`` (r in [r0, r1], r1 may be inf) or a
    circular arc ``center + radius e^{i theta}`` traversed from a0 to a1.

    ``orientation`` multiplies the integral by +-1; -1 means the segment is
    traversed against its parametrization.
    """

    kind: str
    base: complex = 0.0
    angle: float = 0.0
    r0: float = 0.0
    r1: float = math.inf
    radius: float = 0.0
    a0: float = 0.0
    a1: float = 0.0
    orientation: int = 1

    @staticmethod
    def ray(base: complex, angle: float, r0: float, r1: float = math.inf,
            orientation: int = 1) -> "PathSegment":
        return PathSegment("ray", base=complex(base), angle=float(angle),
                           r0=float(r0), r1=float(r1), orientation=orientation)

    @staticmethod
    def arc(center: complex, radius: float, a0: float, a1: float,
            orientation: int = 1) -> "PathSegment":
        return PathSegment("arc", base=complex(center), radius=float(radius),
                           a0=float(a0), a1=float(a1), orientation=orientation)

    @property
    def finite(self) -> bool:
        return self.kind == "arc" or math.isfinite(self.r1)

    @property
    def on_real_axis(self) -> bool:
        """True for a ray that runs along the real axis."""
        return (self.kind == "ray" and abs(math.sin(self.angle)) < 1e-12
                and abs(self.base.imag) < 1e-12)

    def reversed(self) -> "PathSegment":
        return PathSegment(**{**self.__dict__, "orientation": -self.orientation})

    def point(self, u):
        """Position for parameter u (radius for rays, angle for arcs)."""
        u = np.asarray(u, dtype=float)
        if self.kind == "ray":
            return self.base + u * np.exp(1j * self.angle)
        return self.base + self.radius * np.exp(1j * u)

    def dpoint(self, u):
        """d(lambda)/du along the parametrization."""
        u = np.asarray(u, dtype=float)
        if self.kind == "ray":
            return np.full(u.shape, np.exp(1j * self.angle))
        return 1j * self.radius * np.exp(1j * u)


class ExpDecay:
    """Envelope model |f| <= exp(log_scale - sum_j c_j (r^p_j - r0^p_j)).

    The highest-power coefficient must be positive; lower-order terms may be
    negative (bounded growth factors).  ``radius(log_target)`` returns the
    smallest radius at which the model value drops below ``log_target``.
    """

    def __init__(self, terms, r0: float, log_scale: float = 0.0):
        self.terms = tuple((float(c), float(p)) for c, p in terms)
        self.r0 = float(r0)
        self.log_scale = float(log_scale)
        dominant = max(self.terms, key=lambda t: t[1])
        if dominant[0] <= 0.0:
            raise ValueError("dominant decay coefficient must be positive")

    @staticmethod
    def linear(c: float, r0: float, log_scale: float = 0.0) -> "ExpDecay":
        return ExpDecay([(c, 1.0)], r0, log_scale)

    def log_env(self, r: float) -> float:
        return self.log_scale - sum(c * (r ** p - self.r0 ** p) for c, p in self.terms)

    def radius(self, log_target: float) -> float:
        if self.log_env(self.r0) <= log_target:
            return self.r0
        lo = self.r0
        hi = max(2.0 * self.r0, self.r0 + 1.0)
        for _ in range(200):
            if self.log_env(hi) <= log_target:
                break
            lo, hi = hi, 2.0 * hi
        else:
            raise TailBoundUnavailable("decay model never reaches the requested tail bound")
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if self.log_env(mid) <= log_target:
                hi = mid
            else:
                lo = mid
        return hi


@dataclass(frozen=True)
class IntegralResult:
    value: complex
    est_error: float
    nodes: int
    converged: bool
    message: str = ""

    def require(self) -> complex:
        if not self.converged:
            raise ToleranceNotMet(self.message or "quadrature tolerance not met",
                                  value=self.value, est_error=self.est_error)
        return self.value


@lru_cache(maxsize=64)
def _gl(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _build_panels(lo: float, hi: float, rate, order: int, density: float,
                  max_panels: int):
    """Split [lo, hi] into panels holding >= density nodes per wavelength."""
    span = hi - lo
    floor = TWO_PI * order / (density * span)  # at least one panel
    panels = []
    u = lo
    while u < hi - 1e-14 * max(1.0, abs(hi)):
        r = max(rate(u), floor)
        step = TWO_PI * order / (density * r)
        # re-check at the far end for growing rates
        r_end = max(rate(min(hi, u + step)), floor)
        if r_end > r:
            step = TWO_PI * order / (density * r_end)
        b = min(hi, u + step)
        panels.append((u, b))
        if len(panels) > max_panels:
            raise ToleranceNotMet(
                f"panel budget exceeded on [{lo:g}, {hi:g}]")
        u = b
    return panels


def _panel_nodes(panels, order: int):
    x, w = _gl(order)
    a = np.array([p[0] for p in panels])
    b = np.array([p[1] for p in panels])
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    u = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wu = (half[:, None] * w[None, :]).ravel()
    return u, wu


def segment_nodes(seg: PathSegment, params: QuadratureParams, *, osc=None,
                  decay: ExpDecay | None = None, order: int | None = None):
    """Quadrature nodes and complex weights for a segment (fast path).

    Returns (lam, w) such that integral f = sum w * f(lam).  Infinite rays
    require a decay model.  ``osc(u)`` bounds |d phase/du| in parameter
    units; the default assumes a slowly varying integrand.
    """
    if osc is None:
        osc = lambda u: 1.0
    if order is None:
        order = params.max_order
    if seg.kind == "ray" and not math.isfinite(seg.r1):
        if decay is None:
            raise TailBoundUnavailable(
                "infinite ray needs a decay model for fixed-node quadrature")
        log_target = math.log(params.abs_tol / 10.0)
        hi = decay.radius(log_target)
        seg = PathSegment.ray(seg.base, seg.angle, seg.r0, hi, seg.orientation)
    lo, hi, flip = _param_interval(seg)
    panels = _build_panels(lo, hi, osc, order, params.density,
                           max_panels=max(4, params.max_nodes // order))
    u, wu = _panel_nodes(panels, order)
    lam = seg.point(u)
    w = wu * seg.dpoint(u) * (seg.orientation * flip)
    return lam, w


def component_nodes(segments, params: QuadratureParams, osc, decay=None):
    """Quadrature nodes and weights for the segments of one contour component.

    ``osc(seg)`` returns the phase-rate bound of a segment (a callable of
    its parameter, as in :func:`segment_nodes`); ``decay(seg)`` returns the
    :class:`ExpDecay` envelope that truncates an infinite ray off the real
    axis.  Returns (lam, w, axis_rays): the nodes and weights of every arc,
    finite ray and truncated off-axis ray, in segment order, and the
    infinite rays on the real axis unchanged, for the caller's exact or
    accelerated tails.
    """
    empty = np.zeros(0, dtype=complex)
    lams, ws, axis_rays = [empty], [empty], []
    for seg in segments:
        if not seg.finite and seg.on_real_axis:
            axis_rays.append(seg)
            continue
        env = None if seg.finite or decay is None else decay(seg)
        lam, w = segment_nodes(seg, params, osc=osc(seg), decay=env)
        lams.append(lam)
        ws.append(w)
    return np.concatenate(lams), np.concatenate(ws), axis_rays


def apply_phase(xs: np.ndarray, lam: np.ndarray, wf: np.ndarray) -> np.ndarray:
    """exp(i xs (x) lam) @ wf: sum_n wf_n exp(i lam_n x) for every x.

    ``wf`` holds weights times integrand values, shape (nodes,) or
    (nodes, columns); the result has shape (len(xs),) or (len(xs), columns).
    """
    return np.exp(1j * np.multiply.outer(xs, lam)) @ wf


def _param_interval(seg: PathSegment):
    if seg.kind == "ray":
        return seg.r0, seg.r1, 1.0
    if seg.a1 >= seg.a0:
        return seg.a0, seg.a1, 1.0
    return seg.a1, seg.a0, -1.0


def wynn_epsilon(partial_sums):
    """Accelerate a complex sequence; returns (limit, error_estimate)."""
    s = [complex(v) for v in partial_sums]
    n = len(s)
    if n < 3:
        return s[-1], abs(s[-1] - s[0]) if n > 1 else abs(s[-1])
    eps_prev = [0.0 + 0.0j] * (n + 1)
    eps_curr = list(s)
    best = s[-1]
    prev_best = s[-2]
    col = 0
    while len(eps_curr) >= 2:
        nxt = []
        for i in range(len(eps_curr) - 1):
            diff = eps_curr[i + 1] - eps_curr[i]
            if abs(diff) < 1e-300:
                nxt = []
                break
            nxt.append(eps_prev[i + 1] + 1.0 / diff)
        if not nxt:
            break
        eps_prev = eps_curr
        eps_curr = nxt
        col += 1
        if col % 2 == 0 and len(eps_curr) >= 1:
            prev_best, best = best, eps_curr[-1]
    return best, abs(best - prev_best)


def _finite_with_refinement(f, seg, params, osc, order):
    tol = lambda v: max(params.abs_tol, params.rel_tol * abs(v))
    lo, hi, flip = _param_interval(seg)
    panels = _build_panels(lo, hi, osc, order, params.density,
                           max_panels=max(4, params.max_nodes // order))
    nodes_used = 0
    for round_ in range(params.max_refine + 1):
        u, wu = _panel_nodes(panels, order)
        lam = seg.point(u)
        vals = f(lam) * seg.dpoint(u)
        value = np.sum(vals * wu)
        u2, wu2 = _panel_nodes(panels, max(2, order // 2))
        lam2 = seg.point(u2)
        value_low = np.sum(f(lam2) * seg.dpoint(u2) * wu2)
        nodes_used += u.size + u2.size
        est = abs(value - value_low)
        scaled = value * seg.orientation * flip
        if est <= tol(value) or nodes_used > params.max_nodes:
            ok = est <= tol(value)
            return IntegralResult(scaled, est, nodes_used, ok,
                                  "" if ok else "node budget exhausted")
        panels = [p for a, b in panels for p in ((a, 0.5 * (a + b)), (0.5 * (a + b), b))]
    return IntegralResult(scaled, est, nodes_used, False, "refinement limit reached")


def _blocks_with_acceleration(f, seg, params, osc, order):
    """Infinite ray: half-period blocks plus epsilon acceleration."""
    rate0 = osc(seg.r0)
    if rate0 <= 0.0:
        raise TailBoundUnavailable(
            "infinite ray without decay model needs a positive oscillation rate")
    edges = [seg.r0]
    partial = []
    total = 0.0 + 0.0j
    nodes_used = 0
    est = math.inf
    small = 0
    for m in range(params.max_blocks):
        a = edges[-1]
        b = a + math.pi / max(osc(a), 1e-12)
        edges.append(b)
        piece = PathSegment.ray(seg.base, seg.angle, a, b, 1)
        res = _finite_with_refinement(f, piece, params, osc, order)
        nodes_used += res.nodes
        total += res.value
        partial.append(total)
        if abs(res.value) < params.abs_tol / 4.0:
            small += 1
            if small >= 2:
                return IntegralResult(total * seg.orientation,
                                      abs(res.value) + res.est_error,
                                      nodes_used, True)
        else:
            small = 0
        if len(partial) >= 8:
            value, est = wynn_epsilon(partial)
            if est < max(params.abs_tol, params.rel_tol * abs(value)):
                return IntegralResult(value * seg.orientation, est, nodes_used, True)
    value, est = wynn_epsilon(partial)
    ok = est < max(params.abs_tol, params.rel_tol * abs(value))
    return IntegralResult(value * seg.orientation, est, nodes_used, ok,
                          "" if ok else "tail acceleration did not converge")


def integrate_segment(f, seg: PathSegment, params: QuadratureParams | None = None, *,
                      osc=None, order: int | None = None) -> IntegralResult:
    """Integrate a vectorized callable along one segment with error control.

    ``osc(u)`` bounds the local phase rate per parameter unit (radius or
    angle).  Infinite rays are summed in oscillation blocks with epsilon
    acceleration; :func:`segment_nodes` truncates them with a decay model
    instead.
    """
    params = params or QuadratureParams()
    if osc is None:
        osc = lambda u: 1.0
    if order is None:
        order = params.max_order
    if not seg.finite:
        return _blocks_with_acceleration(f, seg, params, osc, order)
    return _finite_with_refinement(f, seg, params, osc, order)


# ---------------------------------------------------------------------------
# analytic primitives


def ray_monomial_tail(theta: float, r0: float, x: float, power: int) -> complex:
    """Outward integral of exp(i lam x) lam^(-power) over the ray
    lam = r e^{i theta}, r >= r0, for x > 0 and theta in [0, pi].

    Substituting r = r0 t gives r0^(1-power) E_power(-i r0 e^{i theta} x)
    with E the generalized exponential integral, which mpmath evaluates for
    complex arguments.
    """
    if not (x > 0.0):
        raise NonpositiveX(f"requires x > 0, got {x}")
    if power < 1:
        raise ValueError("power must be >= 1")
    if math.sin(theta) < -1e-12:
        raise ValueError("ray must lie in the closed upper half plane")
    z = -1j * r0 * complex(math.cos(theta), math.sin(theta)) * x
    e = complex(mpmath.expint(power, z))
    return np.exp(1j * theta * (1 - power)) * r0 ** (1 - power) * e


def tail_subtraction_coeffs(datum, m_terms: int) -> np.ndarray:
    """Boundary derivatives f(j)(0), j < m_terms, for large-lambda
    subtraction of the half-line Fourier transform."""
    return datum.boundary_derivatives(m_terms)
