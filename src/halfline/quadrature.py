"""Deterministic contour quadrature on rays and arcs.

The integration strategy is composite Gauss-Legendre of one fixed rule,
``_ORDER`` nodes per panel and ``_DENSITY`` per oscillation wavelength,
with panel lengths chosen from a caller-supplied bound on the local phase
rate.  Where the rate grows, each width is the one that resolves a rate
of the absolute quarter-octave ladder 2^(j/4), integer j
(:func:`ladder_rate`), so a growing rate gives runs of equal panels
(width groups); a constant or falling rate keeps the unrounded panels.
An infinite ray is truncated with an :class:`ExpDecay` envelope model,
at the radius where the model guarantees the tail is below a tenth of
the absolute tolerance (:func:`segment_nodes`); without a model it
raises :class:`TailBoundUnavailable`.

Every component integral of the transform pair, int exp(i lam x) F(lam)
over the real line or a sector boundary, runs on one engine:
:func:`component_nodes` discretizes a component's arcs, finite rays and
off-axis infinite rays (each caller supplies its phase-rate and envelope
models; :mod:`halfline.contours` has already turned every infinite ray off
the real axis, where no envelope decays) and :func:`apply_phase` then
evaluates exp(i x lam) @ (w F) for all x at once.  The phase factors as
exp(i x c_p) exp(i x o_gk) over the factored layout that :class:`Nodes`
carries: one table of node phases per width group, shared by all the
group's panels, and one exponential per panel and x.  :func:`apply_phase`
builds every table with one exponential call and every panel factor with
one more, and sums chunks of whole panels, one matrix product per chunk;
the evolution's blocks, each against its own prefix of times, run on
:class:`PhaseKernel`, which builds the same tables group by group, a
group of twice another's width as the square of its table.  The
half-line transform's equal panels factor further, in
:class:`halfline.transforms.SupportTransform`.  :func:`integrate_segment`
integrates one finite segment of a callable with error control, and
:func:`ray_monomial_tail` sums a monomial ray tail by mpmath's
exponential integral; no library path calls either, they are references
for checks.  mpmath is imported inside :func:`ray_monomial_tail`, so
importing this module loads only numpy.

Everything is deterministic: no randomness, and identical inputs produce
identical node sequences.  Component integrals carry no error estimate;
only :func:`integrate_segment` estimates one, by comparing each panel at
the working Gauss order against half that order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonpositiveX, TailBoundUnavailable, ToleranceNotMet

__all__ = [
    "QuadratureParams",
    "PathSegment",
    "ExpDecay",
    "IntegralResult",
    "Nodes",
    "segment_nodes",
    "component_nodes",
    "PhaseKernel",
    "apply_phase",
    "integrate_segment",
    "ray_monomial_tail",
]

TWO_PI = 2.0 * math.pi
# node budget of one segment, and refinement rounds of a finite segment
_MAX_NODES = 400_000
_MAX_REFINE = 4
# laddered panel widths resolve the rates 2^(j / _LADDER): quarter octaves
_LADDER = 4
# the Gauss rule of every panel: its order, and its nodes per oscillation
# wavelength (8 puts order 24 well past the resolution threshold, with
# errors near roundoff).  Component integrals carry no error estimate, so
# the rule is part of what the checks certify, not a tuning choice
_ORDER = 24
_DENSITY = 8.0
# cap on the phase entries of one chunk of apply_phase, len(xs) x nodes:
# 512 KB of complex entries, inside one core's L2 cache.  verify's and
# recon's calls, replayed on a 2-core x86 machine, timed alike from 8k to
# 64k entries and 7-16% slower at 128k
_PHASE_BUDGET = 32_768


@dataclass(frozen=True)
class QuadratureParams:
    """Tolerances.

    ``abs_tol`` sets where sums stop: an infinite ray is cut where its
    envelope falls below abs_tol / 10 (:attr:`tail_log_target`), the
    real-line tail scan at blocks below abs_tol / 8.  ``rel_tol`` is read
    only by :func:`integrate_segment`, which no library path calls.  The
    Gauss rule is no setting: every panel holds ``_ORDER`` nodes and
    ``_DENSITY`` of them per oscillation wavelength.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-11

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

    def __init__(self, terms, r0: float, log_scale: float):
        self.terms = tuple((float(c), float(p)) for c, p in terms)
        self.r0 = float(r0)
        self.log_scale = float(log_scale)
        dominant = max(self.terms, key=lambda t: t[1])
        if dominant[0] <= 0.0:
            raise ValueError("dominant decay coefficient must be positive")

    @staticmethod
    def linear(c: float, r0: float, log_scale: float) -> "ExpDecay":
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


def _build_panels(lo: float, hi: float, rate):
    """Split [lo, hi] into panels holding >= _DENSITY nodes per wavelength.

    Returns the panels (a, b) and their nominal widths.  Where the rate
    grows across a panel, its width is the widest rung of the ladder
    (:func:`ladder_rate`) that the rates at both of its ends admit, so a
    growing rate gives runs of equal panels; a constant or falling rate
    gives the unrounded widths.  The last panel stops at ``hi``; its
    nominal width is the part it keeps.  More than
    max(4, _MAX_NODES // _ORDER) panels raise :class:`ToleranceNotMet`.
    """
    def allowed(r):
        """The width that holds _DENSITY nodes per wavelength at rate r (and
        the rate that width r resolves)."""
        return TWO_PI * _ORDER / (_DENSITY * r)

    if hi <= lo:  # a ray cut at its start: no panels
        return [], []
    floor = allowed(hi - lo)  # the rate of one panel over [lo, hi]

    def rate_at(u):
        return max(rate(min(hi, u)), floor)

    max_panels = max(4, _MAX_NODES // _ORDER)
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


class Nodes(tuple):
    """Nodes and weights of a composite Gauss rule on a segment or a
    contour component, unpacking as (lam, w) like a plain pair, with the
    nodes also in factored form: node k of panel p is
    ``center[p] + offset[group[p], k]``.

    The panels of one width group along one ray share a row of ``offset``
    (e^{i angle} h x_k, with h the group's half-width and x_k the Gauss
    nodes); an arc panel is a group of its own, with centre 0 and its nodes
    as the row.  Nodes are ordered panel by panel, as in ``lam``.
    """

    def __new__(cls, lam, w, center, offset, group):
        self = super().__new__(cls, (lam, w))
        self.center = np.asarray(center, dtype=complex)
        self.offset = np.asarray(offset, dtype=complex)
        self.group = np.asarray(group, dtype=np.intp)
        return self

    def runs(self):
        """(first, stop) of each run of consecutive panels in one group."""
        if self.group.size == 0:
            return []
        cut = np.flatnonzero(np.diff(self.group)) + 1
        edges = [0, *cut.tolist(), self.center.size]
        return list(zip(edges[:-1], edges[1:]))

    @staticmethod
    def concat(parts) -> "Nodes":
        """The nodes of ``parts`` in turn; their groups stay apart."""
        rows = np.cumsum([0] + [p.offset.shape[0] for p in parts])
        empty = np.zeros(0, dtype=complex)
        return Nodes(
            np.concatenate([empty] + [p[0] for p in parts]),
            np.concatenate([empty] + [p[1] for p in parts]),
            np.concatenate([empty] + [p.center for p in parts]),
            np.concatenate([np.zeros((0, _ORDER))] + [p.offset for p in parts]),
            np.concatenate([np.zeros(0, dtype=np.intp)]
                           + [p.group + r for p, r in zip(parts, rows)]))


def _layout(seg: PathSegment, panels, widths, lam):
    """(center, offset, group) of the nodes ``lam`` of ``panels``."""
    if seg.kind == "arc":
        count = len(panels)
        return np.zeros(count), lam.reshape(count, _ORDER), np.arange(count)
    x, _ = _gl(_ORDER)
    keys, group = np.unique(np.asarray(widths), return_inverse=True)
    mid = np.array([0.5 * (a + b) for a, b in panels])
    offset = np.multiply.outer(0.5 * keys * np.exp(1j * seg.angle), x)
    return seg.point(mid), offset, group


def segment_nodes(seg: PathSegment, params: QuadratureParams, *, osc=None,
                  decay: ExpDecay | None = None) -> Nodes:
    """Quadrature nodes and complex weights for a segment (fast path).

    Returns the :class:`Nodes` (lam, w) such that integral f =
    sum w * f(lam).  Infinite rays require a decay model.  ``osc(u)``
    bounds |d phase/du| in parameter units; the default assumes a phase
    rate of at most 1.
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
    panels, widths = _build_panels(lo, hi, osc)
    u, wu = _panel_nodes(panels, _ORDER)
    lam = seg.point(u)
    w = wu * seg.dpoint(u) * (seg.orientation * flip)
    return Nodes(lam, w, *_layout(seg, panels, widths, lam))


def component_nodes(segments, params: QuadratureParams, osc, decay=None) -> Nodes:
    """The :class:`Nodes` of the segments of one contour component, in turn.

    ``osc(seg)`` returns the phase-rate bound of a segment (a callable of
    its parameter, as in :func:`segment_nodes`); ``decay(seg)`` returns the
    :class:`ExpDecay` envelope that truncates an infinite ray.  An infinite
    ray on the real axis, where exp(i lam x) does not decay, raises
    :class:`TailBoundUnavailable`.
    """
    parts = []
    for seg in segments:
        if not seg.finite and seg.on_real_axis:
            raise TailBoundUnavailable(
                "an infinite ray on the real axis has no decaying envelope")
        env = None if seg.finite or decay is None else decay(seg)
        parts.append(segment_nodes(seg, params, osc=osc(seg), decay=env))
    return Nodes.concat(parts)


def _node_tables(ix: np.ndarray, rows: np.ndarray):
    """exp(ix (x) row) for every row of ``rows``, shape (len(ix), rows,
    order), from one exponential call, and the number of exponentials.

    A ray's row is odd about its centre (Gauss nodes come in pairs
    +-x_k), and exp(-z) = 1 / exp(z) costs a division, so only its first
    ceil(order / 2) entries are exponentials and the rest reciprocals; an
    arc's row is evaluated whole.
    """
    count, order = rows.shape
    half = order // 2
    keep = order - half
    full = np.flatnonzero(
        (rows[:, :half] != -rows[:, :keep - 1:-1]).any(axis=1))
    picked = rows[:, :keep]
    if full.size:
        picked = np.concatenate([picked.ravel(), rows[full, keep:].ravel()])
    phases = np.multiply.outer(ix, picked).reshape(ix.size, -1)
    np.exp(phases, out=phases)
    left = phases[:, :count * keep].reshape(ix.size, count, keep)
    table = np.empty((ix.size, count, order), dtype=complex)
    table[:, :, :keep] = left
    if full.size < count:  # the arcs' reciprocals are overwritten below
        np.divide(1.0, left[:, :, :half][:, :, ::-1], out=table[:, :, keep:])
    if full.size:
        table[:, full, keep:] = phases[:, count * keep:].reshape(
            ix.size, full.size, half)
    return table, phases.size


def _phase_block(outer: np.ndarray, tables: np.ndarray) -> np.ndarray:
    """exp(i x lam) over a block of panels, shape (len(xs), panels x
    order) in node order, from the panel factors ``outer`` (len(xs),
    panels) and the node-phase ``tables`` (len(xs), panels or 1, order)."""
    return (outer[:, :, None] * tables).reshape(outer.shape[0], -1)


class PhaseKernel:
    """Sums of exp(i x lam) wf over blocks of :class:`Nodes` whose panels
    share one width group, for one fixed set of x: the evolution's apply,
    where each block meets its own prefix of times.

    The phase factors panel by panel, exp(i x (c_p + o_gk)) =
    exp(i x c_p) exp(i x o_gk): the second factor is a table per width
    group (:func:`_node_tables`), built on first use and shared by every
    panel of the group, the first one exponential per panel and x.  The
    columns of ``wf`` meet the phase block, formed from the two factors
    by products, in one matrix product; for the real parts alone,
    :meth:`re_apply` reads the phase block as float pairs, in one real
    product.  A group whose offsets are exactly twice another group's
    (along a ray, widths four rungs of the ladder apart) takes that
    group's table squared, exp(2 z) = exp(z)^2, built first if needed:
    each squaring doubles the table's relative rounding and adds eps, as
    evaluating the doubled phase directly doubles its argument's.
    ``exps`` counts the complex exponentials evaluated.
    """

    def __init__(self, xs, nodes: Nodes):
        self.ix = 1j * np.asarray(xs)
        self.nodes = nodes
        self.exps = 0
        self._tables: dict[int, np.ndarray] = {}
        # + 0.0 makes a -0.0 part compare equal to 0.0
        group = {(row + 0.0).tobytes(): g for g, row in enumerate(nodes.offset)}
        self._half = [group.get((0.5 * row + 0.0).tobytes())
                      for row in nodes.offset]

    def _table(self, g: int) -> np.ndarray:
        table = self._tables.get(g)
        if table is None:
            half = self._half[g]
            if half is None:
                table, count = _node_tables(self.ix, self.nodes.offset[g:g + 1])
                self.exps += count
            else:
                table = np.square(self._table(half))
            self._tables[g] = table
        return table

    def _block(self, first: int, stop: int) -> np.ndarray:
        """exp(i x lam) over panels first..stop-1 of one group."""
        table = self._table(int(self.nodes.group[first]))
        outer = np.multiply.outer(self.ix, self.nodes.center[first:stop])
        np.exp(outer, out=outer)
        self.exps += outer.size
        return _phase_block(outer, table)

    def apply(self, first: int, stop: int, wf: np.ndarray) -> np.ndarray:
        """sum over the nodes of panels first..stop-1, which must share one
        group, of exp(i x lam) wf; ``wf`` holds those nodes' rows, shape
        (nodes, columns)."""
        return self._block(first, stop) @ wf

    def re_apply(self, first: int, stop: int, cwf: np.ndarray) -> np.ndarray:
        """Re of :meth:`apply` for wf = conj(cwf).T, in one real product:
        ``cwf`` is time-major, shape (columns, nodes), C-contiguous.  The
        phase block and ``cwf`` are both read as float pairs (Re, Im), so
        each node adds Re e Re wf - Im e Im wf = Re(e wf): half the
        multiply-adds of the complex product, and no copy."""
        return self._block(first, stop).view(float) @ cwf.view(float).T


def apply_phase(xs: np.ndarray, nodes: Nodes, wf: np.ndarray) -> np.ndarray:
    """exp(i xs (x) lam) @ wf: sum_n wf_n exp(i lam_n x) for every x, with
    lam the ``nodes``, in one pass over them.

    ``wf`` holds weights times integrand values, shape (nodes,) or
    (nodes, columns); the result has shape (len(xs),) or (len(xs), columns).
    Every width group's node-phase table comes from one exponential call
    (:func:`_node_tables`) and every panel factor exp(i x c_p) from one
    more; the panels are then summed in chunks of whole panels, of any
    groups, under ``_PHASE_BUDGET`` phase entries, one matrix product per
    chunk.
    """
    ix = 1j * np.asarray(xs)
    tables, _ = _node_tables(ix, nodes.offset)
    outer = np.multiply.outer(ix, nodes.center)
    np.exp(outer, out=outer)
    out = np.zeros((ix.size,) + wf.shape[1:], dtype=complex)
    step = max(1, _PHASE_BUDGET // (ix.size * _ORDER))
    for p in range(0, nodes.center.size, step):
        q = p + step
        block = _phase_block(outer[:, p:q], tables[:, nodes.group[p:q]])
        out += block @ wf[p * _ORDER:q * _ORDER]
    return out


def _param_interval(seg: PathSegment):
    if seg.kind == "ray":
        return seg.r0, seg.r1, 1.0
    if seg.a1 >= seg.a0:
        return seg.a0, seg.a1, 1.0
    return seg.a1, seg.a0, -1.0


def _finite_with_refinement(f, seg, params, osc):
    tol = lambda v: max(params.abs_tol, params.rel_tol * abs(v))
    lo, hi, flip = _param_interval(seg)
    panels, _ = _build_panels(lo, hi, osc)
    nodes_used = 0
    for round_ in range(_MAX_REFINE + 1):
        u, wu = _panel_nodes(panels, _ORDER)
        u2, wu2 = _panel_nodes(panels, _ORDER // 2)
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


def integrate_segment(f, seg: PathSegment, params: QuadratureParams | None = None, *,
                      osc=None) -> IntegralResult:
    """Integrate a vectorized callable along one finite segment with error
    control: panels are halved until the working Gauss order and half that
    order agree.

    ``osc(u)`` bounds the local phase rate per parameter unit (radius or
    angle).  An infinite ray raises :class:`TailBoundUnavailable`, as in
    :func:`segment_nodes` without a decay model.
    """
    params = params or QuadratureParams()
    if osc is None:
        osc = lambda u: 1.0
    if not seg.finite:
        raise TailBoundUnavailable(
            "infinite ray needs a decay model; integrate it with segment_nodes")
    return _finite_with_refinement(f, seg, params, osc)


# ---------------------------------------------------------------------------
# analytic primitives


def ray_monomial_tail(theta: float, r0: float, x: float, power: int) -> complex:
    """Outward integral of exp(i lam x) lam^(-power) over the ray
    lam = r e^{i theta}, r >= r0, for x > 0 and theta in [0, pi]: a
    reference for the turned rays and vertical tails, one point at a time.

    Substituting r = r0 t gives r0^(1-power) E_power(-i r0 e^{i theta} x)
    with E the generalized exponential integral, which mpmath evaluates for
    complex arguments.
    """
    import mpmath

    if not (x > 0.0):
        raise NonpositiveX(f"requires x > 0, got {x}")
    if power < 1:
        raise ValueError("power must be >= 1")
    if math.sin(theta) < -1e-12:
        raise ValueError("ray must lie in the closed upper half plane")
    z = -1j * r0 * complex(math.cos(theta), math.sin(theta)) * x
    e = complex(mpmath.expint(power, z))
    return np.exp(1j * theta * (1 - power)) * r0 ** (1 - power) * e

