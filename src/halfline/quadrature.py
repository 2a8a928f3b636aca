"""Deterministic contour quadrature on rays and arcs.

The integration strategy is composite Gauss-Legendre with panel lengths
chosen from a caller-supplied bound on the local phase rate, so that each
panel holds a fixed number of nodes per oscillation wavelength.  Where the
rate grows, each width is the one that resolves a rate of the absolute
quarter-octave ladder 2^(j/4), integer j (:func:`ladder_rate`), so a
growing rate gives runs of equal panels (width groups); a constant or
falling rate keeps the unrounded panels.  Infinite rays are truncated in
one of two ways:

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
exp(i x lam) @ (w F) for all x at once.  It runs on :class:`PhaseKernel`,
which factors the phase as exp(i x c_p) exp(i x o_gk) over the panels'
:class:`Panels` layout: one table of node phases per width group, shared by
all the group's panels, and one exponential per panel and x.  The
evolution apply and the half-line transform use the same kernel.

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
    "Panels",
    "Nodes",
    "segment_nodes",
    "component_nodes",
    "PhaseKernel",
    "apply_phase",
    "integrate_segment",
    "wynn_epsilon",
    "ray_monomial_tail",
]

TWO_PI = 2.0 * math.pi
# node budget of one segment, refinement rounds of a finite segment, and
# half-period blocks of an accelerated infinite ray
_MAX_NODES = 400_000
_MAX_REFINE = 4
_MAX_BLOCKS = 400
# laddered panel widths resolve the rates 2^(j / _LADDER): quarter octaves
_LADDER = 4


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

    @property
    def tail_log_target(self) -> float:
        """log of the envelope level past which an infinite ray is cut."""
        return math.log(self.abs_tol / 10.0)


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


def ladder_rate(rate: float) -> float:
    """A phase rate rounded up to its rung of the ladder 2^(j / _LADDER),
    integer j.

    A laddered panel is as wide as its rung's rate admits, and rungs are
    computed from their integer j, so equal rungs give bit-equal widths.
    """
    j = math.ceil(_LADDER * math.log2(rate))
    if 2.0 ** ((j - 1) / _LADDER) >= rate:
        j -= 1
    return 2.0 ** (j / _LADDER)


def _build_panels(lo: float, hi: float, rate, order: int, density: float,
                  max_panels: int):
    """Split [lo, hi] into panels holding >= density nodes per wavelength.

    Returns the panels (a, b) and their nominal widths.  Where the rate
    grows across a panel, its width is the widest rung of the ladder
    (:func:`ladder_rate`) that the rates at both of its ends admit, so a
    growing rate gives runs of equal panels; a constant or falling rate
    gives the unrounded widths.  The last panel stops at ``hi``; its
    nominal width is the part it keeps.
    """
    def allowed(r):
        """The width that holds density nodes per wavelength at rate r (and
        the rate that width r resolves)."""
        return TWO_PI * order / (density * r)

    floor = allowed(hi - lo)  # the rate of one panel over [lo, hi]

    def rate_at(u):
        return max(rate(min(hi, u)), floor)

    panels, widths = [], []
    u = lo
    while u < hi - 1e-14 * max(1.0, abs(hi)):
        r = rate_at(u)
        step = allowed(r)
        if rate_at(u + step) > r:
            # the widest rung, from the rate at u down, whose far end
            # admits it; 1.1 rung lies below the next rung, 2^(1/4) rung
            rung = ladder_rate(r)
            step = allowed(rung)
            while step > allowed(rate_at(u + step)):
                rung = ladder_rate(1.1 * rung)
                step = allowed(rung)
        b = min(hi, u + step)
        panels.append((u, b))
        widths.append(min(step, hi - u))
        if len(panels) > max_panels:
            raise ToleranceNotMet(
                f"panel budget exceeded on [{lo:g}, {hi:g}]")
        u = b
    return panels, widths


def _panel_nodes(panels, order: int):
    x, w = _gl(order)
    a = np.array([p[0] for p in panels])
    b = np.array([p[1] for p in panels])
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    u = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wu = (half[:, None] * w[None, :]).ravel()
    return u, wu


class Panels:
    """The nodes of a composite Gauss rule in factored form: node k of panel
    p is ``center[p] + offset[group[p], k]``.

    The panels of one width group along one ray share a row of ``offset``
    (e^{i angle} h x_k, with h the group's half-width and x_k the Gauss
    nodes); an arc panel is a group of its own, with centre 0 and its nodes
    as the row.  Nodes are ordered panel by panel, as in ``lam``.
    """

    def __init__(self, center, offset, group):
        self.center = np.asarray(center, dtype=complex)
        self.offset = np.asarray(offset, dtype=complex)
        self.group = np.asarray(group, dtype=np.intp)

    @property
    def order(self) -> int:
        return self.offset.shape[1]

    def runs(self):
        """(first, stop) of each run of consecutive panels in one group."""
        if self.group.size == 0:
            return []
        cut = np.flatnonzero(np.diff(self.group)) + 1
        edges = [0, *cut.tolist(), self.center.size]
        return list(zip(edges[:-1], edges[1:]))

    @staticmethod
    def concat(parts, order: int) -> "Panels":
        """One layout of the panels of ``parts`` in turn; their groups stay
        apart."""
        rows = np.cumsum([0] + [p.offset.shape[0] for p in parts])
        return Panels(
            np.concatenate([np.zeros(0)] + [p.center for p in parts]),
            np.concatenate([np.zeros((0, order))] + [p.offset for p in parts]),
            np.concatenate([np.zeros(0, dtype=np.intp)]
                           + [p.group + r for p, r in zip(parts, rows)]))


class Nodes(tuple):
    """Nodes and weights of a segment, unpacking as (lam, w) like a plain
    pair; ``panels`` is the same node set in the factored form of
    :class:`Panels`, for :func:`apply_phase`."""

    def __new__(cls, lam, w, panels: Panels):
        self = super().__new__(cls, (lam, w))
        self.panels = panels
        return self


def _layout(seg: PathSegment, panels, widths, lam, order: int) -> Panels:
    if seg.kind == "arc":
        count = len(panels)
        return Panels(np.zeros(count), lam.reshape(count, order),
                      np.arange(count))
    x, _ = _gl(order)
    keys, group = np.unique(np.asarray(widths), return_inverse=True)
    mid = np.array([0.5 * (a + b) for a, b in panels])
    offset = np.multiply.outer(0.5 * keys * np.exp(1j * seg.angle), x)
    return Panels(seg.point(mid), offset, group)


def segment_nodes(seg: PathSegment, params: QuadratureParams, *, osc=None,
                  decay: ExpDecay | None = None) -> Nodes:
    """Quadrature nodes and complex weights for a segment (fast path).

    Returns (lam, w) such that integral f = sum w * f(lam), with the
    factored layout of the nodes in ``.panels``.  Infinite rays require a
    decay model.  ``osc(u)`` bounds |d phase/du| in parameter units; the
    default assumes a slowly varying integrand.
    """
    if osc is None:
        osc = lambda u: 1.0
    if seg.kind == "ray" and not math.isfinite(seg.r1):
        if decay is None:
            raise TailBoundUnavailable(
                "infinite ray needs a decay model for fixed-node quadrature")
        hi = decay.radius(params.tail_log_target)
        seg = PathSegment.ray(seg.base, seg.angle, seg.r0, hi, seg.orientation)
    lo, hi, flip = _param_interval(seg)
    order = params.max_order
    panels, widths = _build_panels(lo, hi, osc, order, params.density,
                                   max_panels=max(4, _MAX_NODES // order))
    u, wu = _panel_nodes(panels, order)
    lam = seg.point(u)
    w = wu * seg.dpoint(u) * (seg.orientation * flip)
    return Nodes(lam, w, _layout(seg, panels, widths, lam, order))


def component_nodes(segments, params: QuadratureParams, osc, decay=None):
    """Quadrature nodes and weights for the segments of one contour component.

    ``osc(seg)`` returns the phase-rate bound of a segment (a callable of
    its parameter, as in :func:`segment_nodes`); ``decay(seg)`` returns the
    :class:`ExpDecay` envelope that truncates an infinite ray off the real
    axis.  Returns (lam, w, panels, axis_rays): the nodes, weights and
    :class:`Panels` layout of every arc, finite ray and truncated off-axis
    ray, in segment order, and the infinite rays on the real axis
    unchanged, for the caller's exact or accelerated tails.
    """
    empty = np.zeros(0, dtype=complex)
    lams, ws, layouts, axis_rays = [empty], [empty], [], []
    for seg in segments:
        if not seg.finite and seg.on_real_axis:
            axis_rays.append(seg)
            continue
        env = None if seg.finite or decay is None else decay(seg)
        nodes = segment_nodes(seg, params, osc=osc(seg), decay=env)
        lams.append(nodes[0])
        ws.append(nodes[1])
        layouts.append(nodes.panels)
    return (np.concatenate(lams), np.concatenate(ws),
            Panels.concat(layouts, params.max_order), axis_rays)


class PhaseKernel:
    """Sums of exp(i x lam) wf over the nodes of a :class:`Panels` layout,
    for one fixed set of x (real, or complex for transforms of complex
    argument).

    The phase factors panel by panel, exp(i x (c_p + o_gk)) =
    exp(i x c_p) exp(i x o_gk): the second factor is a table per width
    group, built on first use and shared by every panel of the group, the
    first one exponential per panel and x.  For a 1-D ``wf`` the sum over
    each panel's nodes is one matrix product with the table and the sum
    over panels a row-wise dot product with the panel factors; the columns
    of a 2-D ``wf`` meet the phase block, formed from the two factors by
    products, in one matrix product.  ``exps`` counts the complex
    exponentials evaluated.
    """

    def __init__(self, xs, panels: Panels):
        self.ix = 1j * np.asarray(xs)
        self.panels = panels
        self.exps = 0
        self._tables: dict[int, np.ndarray] = {}

    def _table(self, g: int) -> np.ndarray:
        table = self._tables.get(g)
        if table is None:
            row = self.panels.offset[g]
            half = row.size // 2
            # a ray's row is odd about its centre (Gauss nodes come in
            # pairs +-x_k), and exp(-z) = 1 / exp(z) costs a division
            odd = half > 0 and np.array_equal(row[:half], -row[::-1][:half])
            table = np.multiply.outer(self.ix, row[:row.size - half] if odd
                                      else row)
            np.exp(table, out=table)
            self.exps += table.size
            if odd:
                table = np.concatenate([table, 1.0 / table[:, half - 1::-1]],
                                       axis=1)
            self._tables[g] = table
        return table

    def apply(self, first: int, stop: int, wf: np.ndarray) -> np.ndarray:
        """sum over the nodes of panels first..stop-1, which must share one
        group, of exp(i x lam) wf; ``wf`` holds those nodes' rows, shape
        (nodes,) or (nodes, columns)."""
        count = stop - first
        table = self._table(int(self.panels.group[first]))
        outer = np.multiply.outer(self.ix, self.panels.center[first:stop])
        np.exp(outer, out=outer)
        self.exps += outer.size
        if wf.ndim == 2:
            phase = outer[:, :, None] * table[:, None, :]
            return phase.reshape(outer.shape[0], -1) @ wf
        inner = table @ wf.reshape(count, -1).T
        inner *= outer
        # sum() reduces rows pairwise: the rounding error grows with
        # log(panels), not with panels as in a running sum
        return inner.sum(axis=1)


def apply_phase(xs: np.ndarray, panels: Panels, wf: np.ndarray) -> np.ndarray:
    """exp(i xs (x) lam) @ wf: sum_n wf_n exp(i lam_n x) for every x, with
    lam the nodes of ``panels``, by :class:`PhaseKernel`.

    ``wf`` holds weights times integrand values, shape (nodes,) or
    (nodes, columns); the result has shape (len(xs),) or (len(xs), columns).
    """
    kernel = PhaseKernel(xs, panels)
    order = panels.order
    out = np.zeros((np.size(xs),) + wf.shape[1:], dtype=complex)
    for first, stop in panels.runs():
        out += kernel.apply(first, stop, wf[first * order:stop * order])
    return out


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


def _finite_with_refinement(f, seg, params, osc):
    tol = lambda v: max(params.abs_tol, params.rel_tol * abs(v))
    lo, hi, flip = _param_interval(seg)
    order = params.max_order
    panels, _ = _build_panels(lo, hi, osc, order, params.density,
                              max_panels=max(4, _MAX_NODES // order))
    nodes_used = 0
    for round_ in range(_MAX_REFINE + 1):
        u, wu = _panel_nodes(panels, order)
        u2, wu2 = _panel_nodes(panels, max(2, order // 2))
        # one call of f for both rules: its cost is mostly per call
        both = np.concatenate([u, u2])
        vals = f(seg.point(both)) * seg.dpoint(both)
        value = np.sum(vals[:u.size] * wu)
        value_low = np.sum(vals[u.size:] * wu2)
        nodes_used += u.size + u2.size
        est = abs(value - value_low)
        scaled = value * seg.orientation * flip
        if est <= tol(value) or nodes_used > _MAX_NODES:
            ok = est <= tol(value)
            return IntegralResult(scaled, est, nodes_used, ok,
                                  "" if ok else "node budget exhausted")
        panels = [p for a, b in panels for p in ((a, 0.5 * (a + b)), (0.5 * (a + b), b))]
    return IntegralResult(scaled, est, nodes_used, False, "refinement limit reached")


def _blocks_with_acceleration(f, seg, params, osc):
    """Infinite ray: half-period blocks plus epsilon acceleration.

    The error estimate is the larger of Wynn's own and the spread of the
    last three extrapolated limits, as in QUADPACK's qelg: the table's
    last two diagonal entries can agree while successive extrapolations
    still move, so convergence needs three limits that agree.
    """
    rate0 = osc(seg.r0)
    if rate0 <= 0.0:
        raise TailBoundUnavailable(
            "infinite ray without decay model needs a positive oscillation rate")
    edges = [seg.r0]
    partial = []
    limits = []
    total = 0.0 + 0.0j
    nodes_used = 0
    small = 0
    for m in range(_MAX_BLOCKS):
        a = edges[-1]
        b = a + math.pi / max(osc(a), 1e-12)
        edges.append(b)
        piece = PathSegment.ray(seg.base, seg.angle, a, b, 1)
        res = _finite_with_refinement(f, piece, params, osc)
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
            limits.append(value)
            if len(limits) >= 3:
                last = limits[-3:]
                est = max(est, max(abs(p - q) for p in last for q in last))
                if est < max(params.abs_tol, params.rel_tol * abs(value)):
                    return IntegralResult(value * seg.orientation, est,
                                          nodes_used, True)
    value, est = wynn_epsilon(partial)
    return IntegralResult(value * seg.orientation, est, nodes_used, False,
                          "tail acceleration did not converge")


def integrate_segment(f, seg: PathSegment, params: QuadratureParams | None = None, *,
                      osc=None) -> IntegralResult:
    """Integrate a vectorized callable along one segment with error control.

    ``osc(u)`` bounds the local phase rate per parameter unit (radius or
    angle).  Infinite rays are summed in oscillation blocks with epsilon
    acceleration; :func:`segment_nodes` truncates them with a decay model
    instead.
    """
    params = params or QuadratureParams()
    if osc is None:
        osc = lambda u: 1.0
    if not seg.finite:
        return _blocks_with_acceleration(f, seg, params, osc)
    return _finite_with_refinement(f, seg, params, osc)


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

