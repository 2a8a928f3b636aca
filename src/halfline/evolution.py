"""Time evolution of half-line initial-boundary problems.

The solution at time t multiplies each forward transform by the decay
factor exp(-a lam^n t) before inversion.  On the undeformed contours that
factor merely oscillates along the rays (they bound the decay regions), so
every ray is first rotated into the adjacent region where Re(a lam^n) > 0;
the integrands are entire and decay between the old and new rays, so the
values are unchanged while the factor becomes exponentially small along the
new rays.  After the contours are deformed for an (x, t) window, the
integrand depends on the datum alone, and the grid points are only where
it is summed.  So the :class:`Solver` of :func:`prepare` holds the node
packs of a datum for an x-range and a positive-time range, built once by
its first call, and applies them to any grid inside that window (a point
outside it raises):
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
phases, built once per segment and shared by its blocks (the square of
the table of the segment's group of half its width, where there is
one), times one exponential per panel and x.  It is applied, with the block's
decay factors, only to the prefix of times that still need one of its
nodes.  A call runs one job per deformed segment on the process's one
``parallel_map`` pool, whose workers outlive the call: the job builds the
segment's pack if the solver has none yet, so one worker's build
(Python and small numpy) overlaps another's products, and applies it
into sums of its own.  Those are added in job order, so the values do
not depend on the thread count.  A job ignores overflow: an overflowing
build or apply leaves non-finite values, which raise
:class:`ToleranceNotMet` naming their times under any warning filter.

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
and applies every segment.  Where no term of an outgoing ray, times its
node count, can overflow, its 2 Re is one real matrix product, with half
the multiply-adds of the complex one; otherwise the complex sums are
formed, so that an overflow of their imaginary parts still shows.
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
    node-phase tables of the width groups that are not the square of
    another group's table, one per panel and x, and one decay factor per
    applied pair.  All three are 0 when every time is 0.
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


def _jobs(dcs, fold: bool):
    """(segment, k, mirrored) of each pack to build and apply on the
    deformed contours ``dcs``: the rays first, then the arcs.

    With ``fold`` (a :attr:`~halfline.transforms.TransformPair.mirrored`
    problem) only the outgoing rays and the arcs are listed, each outgoing
    ray marked as standing in for its mirror ray too; otherwise every
    segment, unmarked.  A ray's pack costs more than an arc's, so listing
    the rays first lets the pool's workers finish together.
    """
    rays, arcs = [], []
    for k, (inward, arc, out) in enumerate([dcs.gamma0, *dcs.gammas]):
        if not fold:
            rays.append((inward, k, False))
        rays.append((out, k, fold))
        arcs.append((arc, k, False))
    return rays + arcs


_LOG_HUGE = math.log(np.finfo(float).max)


def _sums_are_finite(xs, ts, lam, wf, rate) -> bool:
    """Whether every sum of the terms wf_j exp(i lam_j x + rate_j t) over
    the nodes is finite for x in xs and t in the sorted ts, both parts
    included: log |wf_j| + max_x (-x Im lam_j) + max_t (Re rate_j t),
    the largest log-modulus of node j's terms, plus log(node count) is
    below the log of the largest float.  A non-finite wf reads False."""
    with np.errstate(divide="ignore", invalid="ignore"):
        peak = (np.log(np.abs(wf))
                + np.maximum(-xs.min() * lam.imag, -xs.max() * lam.imag)
                + np.maximum(rate.real * ts[0], rate.real * ts[-1]))
    return bool(peak.max() + math.log(lam.size) < _LOG_HUGE)


def _pack_apply(pair: TransformPair, xs, ts, pack):
    """One pack's share of :func:`_apply` for the sorted times ``ts``:
    the (len(xs), len(ts)) sums, the (node, time) pairs applied and the
    complex exponentials evaluated.

    A mirrored pack's sums count for its mirror ray too, as 2 Re.  Where
    :func:`_sums_are_finite` holds, no part of a sum can overflow, and
    the real parts come from one real product per block
    (:meth:`PhaseKernel.re_apply`), with the decay block formed time-major
    as conj(wf exp(-a lam^n t)).  Otherwise, and for any other pack, the
    sums are complex; a mirrored pack's stay non-finite where either part
    overflowed."""
    lam, wf, tau, nodes, mirrored = pack
    rate = -pair.a * lam ** pair.n
    real = mirrored and lam.size > 0 and _sums_are_finite(xs, ts, lam, wf,
                                                          rate)
    if real:
        rate, wf = rate.conj(), wf.conj()
    acc = np.zeros((xs.size, ts.size), dtype=float if real else complex)
    applied = 0
    kernel = PhaseKernel(xs, nodes)
    step = max(1, _BLOCK_BUDGET // (xs.size * _ORDER))
    # the sorted times that still need node j: those below tau[j]
    need = np.searchsorted(ts, tau, side="left")
    for first, stop in nodes.runs():
        for p in range(first, stop, step):
            q = min(stop, p + step)
            blk = slice(p * _ORDER, q * _ORDER)
            m = int(need[blk].max())
            if m == 0:
                continue
            if real:
                decay = np.multiply.outer(ts[:m], rate[blk])
                np.exp(decay, out=decay)
                np.multiply(decay, wf[blk], out=decay)
                acc[:, :m] += kernel.re_apply(p, q, decay)
            else:
                decay = np.multiply.outer(rate[blk], ts[:m])
                np.exp(decay, out=decay)
                np.multiply(wf[blk, None], decay, out=decay)
                acc[:, :m] += kernel.apply(p, q, decay)
            applied += decay.size
    if real:
        acc *= 2.0
    elif mirrored:
        acc = np.where(np.isfinite(acc), 2.0 * acc.real, np.nan)
    return acc, applied, kernel.exps + applied


def _apply(pair: TransformPair, xs, tpos, packs, build=None):
    """sum_j w_j F(lam_j) exp(i lam_j x - a lam_j^n t) for every (x, t > 0).

    One job per item of ``packs``, on the workers of the process's one
    ``parallel_map`` pool: an item that is None is first built by
    ``build(i)``, in the job that applies it, and kept in ``packs``, so a
    worker's build (Python and small numpy) runs beside the other
    workers' products.  Each pack is walked in blocks of whole panels of
    one width group against the times in increasing order, so a block is
    applied only to the prefix of times below its largest tau; nodes
    outward along a ray have falling envelope times, and their own times
    fall with their terms.  One :class:`PhaseKernel` per pack shares each
    group's node phases across its blocks.  Each job sums into its own
    array, and those are added in job order, so the values do not depend
    on the thread count or on which worker took a job.  A job ignores
    overflow, so an overflowing build or apply leaves non-finite values
    under any warning filter.  Returns the (len(tpos), len(xs)) values in
    the order of ``tpos``, the number of (node, time) pairs applied and the
    number of complex exponentials evaluated.
    """
    t_order = np.argsort(tpos, kind="stable")
    ts = tpos[t_order]

    def job(i):
        # the error state is per thread, so it is set on the worker
        with np.errstate(over="ignore", invalid="ignore"):
            if packs[i] is None:
                packs[i] = build(i)
            return _pack_apply(pair, xs, ts, packs[i])

    acc = np.zeros((xs.size, ts.size), dtype=complex)
    applied = exps = 0
    for part, count, evaluated in parallel_map(job, range(len(packs))):
        acc += part
        applied += count
        exps += evaluated
    values = np.empty((tpos.size, xs.size), dtype=complex)
    values[t_order] = acc.T
    return values, applied, exps


def _grid(xs, ts):
    """xs and ts as 1-D float arrays, nonempty, with finite times >= 0."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if xs.size == 0 or ts.size == 0:
        raise ValueError("xs and ts must be nonempty")
    if not 0.0 <= ts.min() <= ts.max() < np.inf:
        raise ValueError("times must be finite and nonnegative")
    return xs, ts


class Solver:
    """The solution of one datum on a prepared window: every x in
    ``x_range`` and every time 0 or in ``t_range`` (see :func:`prepare`).

    Calling it with (xs, ts) applies the window's packs to that grid and
    returns a :class:`SolutionField`; ``nodes`` counts the packs' nodes,
    ``applied`` and ``exponentials`` the call's own work.  ``jobs`` lists
    the packs' segments (:func:`_jobs`); each pack is built by the first
    call with a positive time, in the pool job that applies it, and kept
    in ``packs`` for every later call (two threads calling one solver at
    once may build a pack twice, to the same values).  An x or a positive
    time outside the window raises ``ValueError``: the packs are cut and
    resolved for the window alone.  Times 0 are the inversion of the
    datum, ``pair.reconstruct``, at any x inside the window.
    """

    def __init__(self, pair: TransformPair, datum, x_range, t_range):
        self.pair = pair
        self.datum = datum
        self.x_range = x_range
        self.t_range = t_range
        self.jobs = ([] if t_range is None else
                     _jobs(deform_for_time(pair.contours), pair.mirrored))
        self.packs = [None] * len(self.jobs)

    def _build(self, i: int):
        """The pack of job i: its :func:`_segment_pack` for the window and
        whether it stands in for its mirror ray too."""
        seg, k, mirrored = self.jobs[i]
        (x_lo, x_hi), (t_lo, t_hi) = self.x_range, self.t_range
        return (*_segment_pack(self.pair, self.datum, seg, k, t_lo, t_hi,
                               x_lo, x_hi), mirrored)

    def __call__(self, xs, ts) -> SolutionField:
        """Evaluate the solution on the grid xs x ts inside the window.

        Raises :class:`ToleranceNotMet` naming the times whose values are
        not finite (a build or the apply overflowed), rather than
        returning them.
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
        nodes = applied = exponentials = 0
        if pos.any():
            evolved, applied, exponentials = _apply(
                self.pair, xs, ts[pos], self.packs, self._build)
            nodes = sum(pack[0].size for pack in self.packs)
            values[pos] = evolved
            bad = ~np.isfinite(values).all(axis=1)
            if bad.any():
                raise ToleranceNotMet(
                    f"solution not finite at times {ts[bad].tolist()}")

        if (~pos).any():
            values[~pos] = self.pair.reconstruct(self.datum, xs)

        return SolutionField(xs=xs, ts=ts, values=values, nodes=nodes,
                             applied=applied, exponentials=exponentials)


def prepare(pair: TransformPair, datum, x_range, t_range) -> Solver:
    """The :class:`Solver` of ``datum`` for the window x in ``x_range`` =
    (lo, hi), lo > 0, and t in ``t_range`` = (lo, hi), lo > 0, or for times
    0 alone when ``t_range`` is None.

    Only the window is checked here; the solver's first call with a
    positive time builds the packs.  The rays are cut for the window's
    smallest time and resolved for its largest, and every drop time holds
    for each x of the window, so one build serves every grid inside it.
    """
    x_range = (float(x_range[0]), float(x_range[1]))
    if not (x_range[0] > 0.0 and math.isfinite(x_range[1])):
        raise NonpositiveX("solution grid requires finite x > 0")
    if x_range[0] > x_range[1]:
        raise ValueError(f"empty x range {x_range}")
    if t_range is not None:
        t_range = (float(t_range[0]), float(t_range[1]))
        if not 0.0 < t_range[0] <= t_range[1]:
            raise ValueError(f"t range {t_range} is not positive and ordered")
    return Solver(pair, datum, x_range, t_range)


def solve_grid(pair: TransformPair, datum, xs, ts) -> SolutionField:
    """Evaluate the solution on the grid xs x ts (xs > 0, ts >= 0): the
    :class:`Solver` of :func:`prepare` on the grid's own window.

    Raises :class:`ToleranceNotMet` naming the times whose values are not
    finite (a build or the apply overflowed), rather than returning them.
    """
    xs, ts = _grid(xs, ts)
    tpos = ts[ts > 0.0]
    t_range = (tpos.min(), tpos.max()) if tpos.size else None
    return prepare(pair, datum, (xs.min(), xs.max()), t_range)(xs, ts)
