"""Time evolution of half-line initial-boundary problems.

The solution at time t multiplies each forward transform by the decay
factor exp(-a lam^n t) before inversion.  On the undeformed contours that
factor merely oscillates along the rays (they bound the decay regions), so
every ray is first rotated into the adjacent region where Re(a lam^n) > 0;
the integrands are entire and decay between the old and new rays, so the
values are unchanged while the factor becomes exponentially small along the
new rays.  After the contours are deformed for an (x, t) window, the
integrand depends on the datum alone, and the grid points are only where
it is summed.  So :func:`prepare` builds the node packs of a datum once
for an x-range and a positive-time range, and its :class:`Solver` applies
them to any grid inside that window (a point outside it raises):
rays are cut where the envelope of the window's smallest time falls below
the tail target, each ray node is resolved for the largest time that
still needs it (rates rounded up to the quadrature's one quarter-octave
ladder, so the panels keep few distinct widths), and the cached transform
values are reused for every t.  :func:`solve_grid` is that step on its
own grid's window.

Each time needs only the ray nodes whose terms it cannot neglect.  Every
ray node gets a drop time tau, the earlier of two (arcs never drop out):
the time from which the envelope is below the tail target at the node's
radius (the envelope's order-n coefficient is linear in t), and the time
from which the node's own term |w F(lam)| exp(-x Im lam - Re(a lam^n) t),
at its largest over the grid's x, is below its share of the tail target.
The target abs_tol / 10 is split evenly over the 2 (N + 1) rays, a
mirrored ray counting for two, and each ray's part evenly over its nodes,
so the terms dropped by their own term sum below abs_tol / 10 at every
(x, t).  Each segment's nodes are walked outward in blocks of whole panels
of one width group, within a fixed entry budget, against the positive
times in increasing order.  A block's exp(i x lam) comes from the
factored kernel of :mod:`halfline.quadrature`: the group's table of node
phases, built once per segment and shared by its blocks, times one
exponential per panel and x.  It is applied, with the block's
decay factors, only to the prefix of times that still need one of its
nodes.  The packs are built, and then applied, on the process's one
``parallel_map`` pool, whose workers outlive the call; each pack is
applied into sums of its own, and those are added in pack order, so the
values do not depend on the thread count.

A problem with real coefficients, conj(a) = (-1)^n a and a real boundary
matrix, has a mirror symmetry; its datum is real, since
:class:`halfline.transforms.SupportTransform` rejects a complex one.  The
reflection lam -> -conj(lam) then maps the deformed contours onto
themselves, with the orientation reversed: gamma0's incoming ray onto its
outgoing ray, and sector k's incoming ray onto sector N+1-k's outgoing
ray.  It maps each integrand exp(i lam x - a lam^n t) F_k(lam) onto the
conjugate of its mirror's, so a mirror pair of rays sums to 2 Re of the
outgoing ray.  For such a problem only the arcs and the outgoing rays are
built and applied, the outgoing ones as 2 Re; every other problem builds
and applies every segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contours import deform_for_time
from .errors import DeformationRequired, NonpositiveX, ToleranceNotMet
from .quadrature import (_ORDER, ExpDecay, PhaseKernel, ladder_rate,
                         segment_nodes)
from .transforms import TransformPair
from .util import parallel_map

__all__ = ["SolutionField", "Solver", "prepare", "solve_grid"]

_DECAY_MARGIN = 0.5
_SCALE_MARGIN = 1.5
# cap on the exp(i x lam) entries of one node block, len(xs) x nodes: 512 KB,
# inside one core's L2 cache.  Budgets from 16k to 256k entries timed alike
# on 400 x 100 grids (2-core x86), with the dense and with the factored
# phases; smaller blocks follow each time's radius more closely.  A block
# holds whole panels of one width group, so even the 5-7 xs of a
# finite-difference stencil get one block per run of equal panels.
_BLOCK_BUDGET = 32_768


@dataclass(frozen=True)
class SolutionField:
    """Solution values on a (t, x) grid; values[i, j] = q(xs[j], ts[i]).

    The counters count the packs that were built, which for a problem with
    real coefficients are the arcs and the outgoing rays only (see the
    module docstring): ``nodes`` counts their quadrature nodes,
    ``applied`` the (node, positive time) pairs multiplied out and
    ``exponentials`` the complex exponentials the apply evaluated: the
    node-phase tables of the width groups, one per panel and x, and one
    decay factor per applied pair.  All three are 0 when every time is 0.
    """

    xs: np.ndarray
    ts: np.ndarray
    values: np.ndarray
    nodes: int = 0
    applied: int = 0
    exponentials: int = 0


def _ray_decay(pair: TransformPair, seg, k: int, t_min: float,
               x_min: float, x_max: float, support: float,
               scale: float) -> ExpDecay:
    """Envelope for |exp(i lam x - a lam^n t) F_k| along a rotated ray.

    The order-n term comes first and uses half the asymptotic coefficient,
    which bounds the true exponent for radii past the pivot; the linear term
    collects the worst-case x factor and the support growth of the shifted
    transforms.  F_k weights fhat(alpha^p lam) over component k's
    multipliers alpha^p (p = 0 for k = 0), and |fhat(mu)| grows at most
    like exp(L max(0, Im mu)), so along the ray the support term is L times
    max(0, max_p sin(theta + arg alpha^p)): 0 on heat's sector rays.
    """
    theta = seg.angle
    g = (pair.a * np.exp(1j * pair.n * theta)).real
    if g <= 1e-12:
        raise DeformationRequired(
            f"ray at angle {theta:.6f} does not enter a decay region")
    s = math.sin(theta)
    c1 = x_min * s if s > 0.0 else x_max * s
    # Im(alpha^p lam) rises along the ray at sin(theta + arg alpha^p)
    mults = np.ones(1) if k == 0 else pair._multipliers(k)
    growth = max(math.sin(theta + p) for p in np.angle(mults))
    if growth > 0.0:
        c1 -= support * growth
    terms = [(_DECAY_MARGIN * t_min * g, float(pair.n))]
    if c1 != 0.0:
        terms.append((c1, 1.0))
    return ExpDecay(terms, seg.r0, math.log(scale) + _SCALE_MARGIN)


def _last_times(env: ExpDecay, r: np.ndarray, t_env: float,
                log_target: float) -> np.ndarray:
    """Per node radius r, the time from which the envelope is below target.

    ``env`` is the :func:`_ray_decay` model for time ``t_env``; its leading
    (order-n) term is linear in t, so at time t the envelope is
    log_env(r) - (t / t_env - 1) lead(r), which reaches ``log_target`` at
    t = t_env (1 + (log_env(r) - log_target) / lead(r)).
    """
    c, p = env.terms[0]
    lead = c * (r ** p - env.r0 ** p)
    return t_env * (1.0 + (env.log_env(r) - log_target) / lead)


def _segment_pack(pair: TransformPair, datum, seg, k: int, t_min: float,
                  t_max: float, x_min: float, x_max: float):
    """(lam, w F_k(lam), tau, nodes) for one deformed segment (a rotated
    infinite ray or an arc), shared across times; ``nodes`` are the
    segment's :class:`~halfline.quadrature.Nodes`.

    Ray node j is dropped at every time t >= tau[j], the earlier of its
    envelope time tau_env[j], from which the :func:`_ray_decay` envelope is
    below the tail target at its radius, and its own time, from which its
    term |wf_j| exp(-x Im lam_j - Re(a lam_j^n) t), at its largest over x
    in [x_min, x_max], is below an even share of the tail target among the
    ray's nodes and the 2 (N + 1) rays; nodes with Re(a lam^n) <= 0 have no
    own time.  So the pairs dropped by their own term sum below the tail
    target at every (x, t), the mirror rays of a folded pack included, and
    tau_env bounds each of the others.  Arcs have tau = inf.

    A rotated ray is resolved, at each radius u, for the largest time that
    its envelope still needs there, t_top(u) = min(t_max, max(t_min,
    tau_env(u))):
    its rate is (x_max + L) + n t_top(u) (|base| + u)^(n-1) + pole(u),
    rounded up by :func:`halfline.quadrature.ladder_rate` to the ladder
    that growing rates' panels use too, so that the panels keep few
    distinct widths and so few phase tables.  Rounding up only narrows
    panels.  Arcs keep the rate of t_max.
    This is sound because a (node, t) pair with t >= tau_env is below
    the tail target and tau <= tau_env: a panel resolves every time that
    its first node's envelope needs, and where the apply takes a block's
    prefix of times past a later panel's tau_env, that panel's
    under-resolved share is an integrand below the tail target, so it
    adds error of the truncation's size.  A ray cut at its start (the
    zero datum's) has no nodes and an empty pack.
    """
    n = pair.n
    L = datum.support
    if not seg.finite and seg.on_real_axis:
        raise DeformationRequired(
            "positive times need contours rotated off the real axis")

    log_target = pair.params.tail_log_target
    pole = pair.junction_osc(seg, 0.0) if k >= 1 else (lambda u: 0.0)
    if seg.kind == "arc":
        r = seg.radius
        arc_rate = r * (x_max + L) + n * t_max * r ** n
        nodes = segment_nodes(seg, pair.params,
                              osc=lambda u: arc_rate + pole(u))
        tau = np.full(nodes[0].size, np.inf)
    else:
        scale = pair.junction_scale(
            lambda lam: pair.forward(datum, k, lam), seg)
        env = _ray_decay(pair, seg, k, t_min, x_min, x_max, L, scale)
        base = abs(seg.base)

        def ray_rate(u):
            t_top = t_max
            if u > env.r0:
                tau = _last_times(env, u, t_min, log_target)
                t_top = min(t_max, max(t_min, tau))
            return ladder_rate((x_max + L) + n * t_top * (base + u) ** (n - 1)
                               + pole(u))

        nodes = segment_nodes(seg, pair.params, osc=ray_rate, decay=env)
        tau = _last_times(env, np.abs(nodes[0] - seg.base), t_min, log_target)
    lam, w = nodes
    wf = w * pair.forward(datum, k, lam)
    if not seg.finite and lam.size:
        # own times: |wf_j| max_x exp(-x Im lam_j) exp(-g_j t) reaches the
        # node's share of the tail target at t = (log term_j - log share) / g_j
        g = (pair.a * lam ** n).real
        log_share = log_target - math.log(2 * (pair.N + 1) * lam.size)
        with np.errstate(divide="ignore"):
            log_term = (np.log(np.abs(wf))
                        + np.maximum(-x_min * lam.imag, -x_max * lam.imag))
        own = np.full(lam.size, np.inf)
        np.divide(log_term - log_share, g, out=own, where=g > 0.0)
        tau = np.minimum(tau, own)
    return lam, wf, tau, nodes


def _packs(pair: TransformPair, datum, xs, tpos):
    """The packs for the window that xs and the positive times tpos span
    (only their extremes are read): each deformed segment's
    :func:`_segment_pack` and whether it stands in for its mirror ray too.

    For a :attr:`~halfline.transforms.TransformPair.mirrored` problem only
    the arcs and the outgoing rays are built, each outgoing ray marked;
    otherwise every segment, unmarked.
    """
    dcs = deform_for_time(pair.contours)
    t_min, t_max = float(tpos.min()), float(tpos.max())
    x_min, x_max = float(xs.min()), float(xs.max())
    fold = pair.mirrored
    jobs = []
    for k, (inward, arc, out) in enumerate([dcs.gamma0, *dcs.gammas]):
        if not fold:
            jobs.append((inward, k, False))
        jobs += [(arc, k, False), (out, k, fold)]
    return parallel_map(
        lambda job: (*_segment_pack(pair, datum, job[0], job[1], t_min,
                                    t_max, x_min, x_max), job[2]),
        jobs)


def _pack_apply(pair: TransformPair, xs, ts, pack):
    """One pack's share of :func:`_apply` for the sorted times ``ts``:
    the (len(xs), len(ts)) sums, the (node, time) pairs applied and the
    complex exponentials evaluated.  A mirrored pack's sums count for its
    mirror ray too, as 2 Re; they stay non-finite where they overflowed."""
    lam, wf, tau, nodes, mirrored = pack
    acc = np.zeros((xs.size, ts.size), dtype=complex)
    applied = 0
    kernel = PhaseKernel(xs, nodes)
    step = max(1, _BLOCK_BUDGET // (xs.size * _ORDER))
    # the sorted times that still need node j: those below tau[j]
    need = np.searchsorted(ts, tau, side="left")
    lam_n = lam ** pair.n
    for first, stop in nodes.runs():
        for p in range(first, stop, step):
            q = min(stop, p + step)
            blk = slice(p * _ORDER, q * _ORDER)
            m = int(need[blk].max())
            if m == 0:
                continue
            decay = np.multiply.outer(lam_n[blk], ts[:m])
            np.multiply(-pair.a, decay, out=decay)
            np.exp(decay, out=decay)
            np.multiply(wf[blk, None], decay, out=decay)
            acc[:, :m] += kernel.apply(p, q, decay)
            applied += decay.size
    if mirrored:
        acc = np.where(np.isfinite(acc), 2.0 * acc.real, np.nan)
    return acc, applied, kernel.exps + applied


def _apply(pair: TransformPair, xs, tpos, packs):
    """sum_j w_j F(lam_j) exp(i lam_j x - a lam_j^n t) for every (x, t > 0).

    Each pack is walked in blocks of whole panels of one width group
    against the times in increasing order, so a block is applied only to
    the prefix of times below its largest tau; nodes outward along a ray
    have falling envelope times, and their own times fall with their
    terms.  One :class:`PhaseKernel` per pack shares each
    group's node phases across its blocks.  The packs are applied on the
    workers of the process's one ``parallel_map`` pool, each into its own
    sums, which are added in pack order, so the values do not depend on the
    thread count or on which worker took a pack.  Returns
    the (len(tpos), len(xs)) values in the order of ``tpos``, the number
    of (node, time) pairs applied and the number of complex exponentials
    evaluated.
    """
    t_order = np.argsort(tpos, kind="stable")
    ts = tpos[t_order]
    acc = np.zeros((xs.size, ts.size), dtype=complex)
    applied = exps = 0
    for part, count, evaluated in parallel_map(
            lambda pack: _pack_apply(pair, xs, ts, pack), packs):
        acc += part
        applied += count
        exps += evaluated
    values = np.empty((tpos.size, xs.size), dtype=complex)
    values[t_order] = acc.T
    return values, applied, exps


def _grid(xs, ts):
    """xs and ts as 1-D float arrays, nonempty, with no negative time."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if xs.size == 0 or ts.size == 0:
        raise ValueError("xs and ts must be nonempty")
    if ts.min() < 0.0:
        raise ValueError("times must be nonnegative")
    return xs, ts


class Solver:
    """The solution of one datum on a prepared window: every x in
    ``x_range`` and every time 0 or in ``t_range`` (see :func:`prepare`).

    Calling it with (xs, ts) applies the window's packs, built once, to
    that grid and returns a :class:`SolutionField`; ``nodes`` counts the
    packs' nodes, ``applied`` and ``exponentials`` the call's own work.
    An x or a positive time outside the window raises ``ValueError``:
    the packs were cut and resolved for the window alone.  Times 0 are
    the inversion of the datum, ``pair.reconstruct``, at any x inside
    the window.
    """

    def __init__(self, pair: TransformPair, datum, x_range, t_range, packs):
        self.pair = pair
        self.datum = datum
        self.x_range = x_range
        self.t_range = t_range
        self.packs = packs
        self.nodes = sum(pack[0].size for pack in packs)

    def __call__(self, xs, ts) -> SolutionField:
        """Evaluate the solution on the grid xs x ts inside the window.

        Raises :class:`ToleranceNotMet` naming the times whose values are
        not finite (the apply overflowed), rather than returning them.
        """
        xs, ts = _grid(xs, ts)
        x_lo, x_hi = self.x_range
        if not x_lo <= xs.min() <= xs.max() <= x_hi:
            raise ValueError(
                f"xs span [{xs.min():g}, {xs.max():g}], outside the "
                f"prepared x range {self.x_range}")
        pos = ts > 0.0
        t_lo, t_hi = self.t_range or (math.inf, 0.0)
        if pos.any() and not t_lo <= ts[pos].min() <= ts[pos].max() <= t_hi:
            raise ValueError(
                f"positive times span [{ts[pos].min():g}, {ts.max():g}], "
                f"outside the prepared t range {self.t_range}")

        values = np.zeros((ts.size, xs.size), dtype=complex)
        applied = exponentials = 0
        if pos.any():
            evolved, applied, exponentials = _apply(self.pair, xs, ts[pos],
                                                    self.packs)
            values[pos] = evolved
            bad = ~np.isfinite(values).all(axis=1)
            if bad.any():
                raise ToleranceNotMet(
                    f"solution not finite at times {ts[bad].tolist()}")

        if (~pos).any():
            values[~pos] = self.pair.reconstruct(self.datum, xs)

        return SolutionField(xs=xs, ts=ts, values=values,
                             nodes=self.nodes if pos.any() else 0,
                             applied=applied, exponentials=exponentials)


def prepare(pair: TransformPair, datum, x_range, t_range) -> Solver:
    """Build the packs of ``datum`` for the window x in ``x_range`` = (lo,
    hi), lo > 0, and t in ``t_range`` = (lo, hi), lo > 0, or for times 0
    alone when ``t_range`` is None, and return their :class:`Solver`.

    The rays are cut for the window's smallest time and resolved for its
    largest, and every drop time holds for each x of the window, so one
    build serves every grid inside it.
    """
    x_range = (float(x_range[0]), float(x_range[1]))
    if x_range[0] <= 0.0:
        raise NonpositiveX("solution grid requires x > 0")
    if x_range[0] > x_range[1]:
        raise ValueError(f"empty x range {x_range}")
    packs = []
    if t_range is not None:
        t_range = (float(t_range[0]), float(t_range[1]))
        if not 0.0 < t_range[0] <= t_range[1]:
            raise ValueError(f"t range {t_range} is not positive and ordered")
        packs = _packs(pair, datum, np.array(x_range), np.array(t_range))
    return Solver(pair, datum, x_range, t_range, packs)


def solve_grid(pair: TransformPair, datum, xs, ts) -> SolutionField:
    """Evaluate the solution on the grid xs x ts (xs > 0, ts >= 0): the
    :class:`Solver` of :func:`prepare` on the grid's own window.

    Raises :class:`ToleranceNotMet` naming the times whose values are not
    finite (the apply overflowed), rather than returning them.
    """
    xs, ts = _grid(xs, ts)
    tpos = ts[ts > 0.0]
    t_range = (tpos.min(), tpos.max()) if tpos.size else None
    return prepare(pair, datum, (xs.min(), xs.max()), t_range)(xs, ts)
