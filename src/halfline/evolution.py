"""Time evolution of half-line initial-boundary problems.

The solution at time t multiplies each forward transform by the decay
factor exp(-a lam^n t) before inversion.  On the undeformed contours that
factor merely oscillates along the rays (they bound the decay regions), so
every ray is first rotated into the adjacent region where Re(a lam^n) > 0;
the integrands are entire and decay between the old and new rays, so the
values are unchanged while the factor becomes exponentially small along the
new rays.  Node sets are built once per (datum, xs, ts) batch: rays are cut
where the envelope of the smallest positive time falls below the tail
target, each ray node is resolved for the largest time that still needs
it (rates rounded up to the quadrature's one quarter-octave ladder, so
the panels keep few distinct widths), and the cached transform values are
reused for every t.

Each time needs only the ray nodes inside its own truncation radius: the
envelope's order-n coefficient is linear in t, so every ray node gets the
time from which its envelope is below the tail target (arcs never drop
out).  Each segment's nodes are walked outward in blocks of whole panels
of one width group, within a fixed entry budget, against the positive
times in increasing order.  A block's exp(i x lam) comes from the
factored kernel of :mod:`halfline.quadrature`: the group's table of node
phases, built once per segment and shared by its blocks, times one
exponential per panel and x.  It is applied, with the block's
decay factors, only to the prefix of times that still need one of its
nodes.  The packs are built, and then applied, on the ``parallel_map``
workers; each pack is applied into sums of its own, and those are added
in pack order, so the values do not depend on the thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contours import deform_for_time
from .errors import DeformationRequired, NonpositiveX, ToleranceNotMet
from .quadrature import ExpDecay, PhaseKernel, ladder_rate, segment_nodes
from .transforms import TransformPair
from .util import parallel_map

__all__ = ["SolutionField", "solve_grid"]

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

    ``nodes`` counts the quadrature nodes of all deformed segments,
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
    transforms.
    """
    theta = seg.angle
    g = (pair.a * np.exp(1j * pair.n * theta)).real
    if g <= 1e-12:
        raise DeformationRequired(
            f"ray at angle {theta:.6f} does not enter a decay region")
    s = math.sin(theta)
    c1 = x_min * s if s > 0.0 else x_max * s
    if k >= 1:
        # shifted arguments alpha^j lam can reach the upper half plane
        c1 -= support
    elif s > 0.0:
        c1 -= support * s
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
    """(lam, w F_k(lam), tau, panels) for one deformed segment (a rotated
    infinite ray or an arc), shared across times.

    Node j contributes below the tail target at every time t >= tau[j];
    arcs have tau = inf.

    A rotated ray is resolved, at each radius u, for the largest time that
    still needs its nodes there, t_top(u) = min(t_max, max(t_min, tau(u))):
    its rate is (x_max + L) + n t_top(u) (|base| + u)^(n-1) + pole(u),
    rounded up by :func:`halfline.quadrature.ladder_rate` to the ladder
    that growing rates' panels use too, so that the panels keep few
    distinct widths and so few phase tables.  Rounding up only narrows
    panels.  Arcs keep the rate of t_max.
    This is sound because a (node, t) pair with t >= tau is below
    the tail target: a panel resolves every time that needs its first
    node, and where the apply takes a block's prefix of times past a later
    panel's own tau, that panel's under-resolved share is an integrand
    below the tail target, so it adds error of the truncation's size.
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
        jun = np.array([seg.point(seg.r0)], dtype=complex)
        scale = max(float(np.abs(pair.forward(datum, k, jun)).max()), 1e-12)
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
    return lam, w * pair.forward(datum, k, lam), tau, nodes.panels


def _packs(pair: TransformPair, datum, xs, tpos):
    """The :func:`_segment_pack` of every deformed segment, for times tpos."""
    dcs = deform_for_time(pair.contours)
    t_min, t_max = float(tpos.min()), float(tpos.max())
    x_min, x_max = float(xs.min()), float(xs.max())
    jobs = [(seg, 0) for seg in dcs.gamma0]
    for k in range(1, pair.N + 1):
        jobs += [(seg, k) for seg in dcs.gammas[k - 1]]
    return parallel_map(
        lambda job: _segment_pack(pair, datum, job[0], job[1],
                                  t_min, t_max, x_min, x_max),
        jobs)


def _pack_apply(pair: TransformPair, xs, ts, pack):
    """One pack's share of :func:`_apply` for the sorted times ``ts``:
    the (len(xs), len(ts)) sums, the (node, time) pairs applied and the
    complex exponentials evaluated."""
    lam, wf, tau, panels = pack
    acc = np.zeros((xs.size, ts.size), dtype=complex)
    applied = 0
    kernel = PhaseKernel(xs, panels)
    order = panels.order
    step = max(1, _BLOCK_BUDGET // (xs.size * order))
    # the sorted times that still need node j: those below tau[j]
    need = np.searchsorted(ts, tau, side="left")
    lam_n = lam ** pair.n
    for first, stop in panels.runs():
        for p in range(first, stop, step):
            q = min(stop, p + step)
            blk = slice(p * order, q * order)
            m = int(need[blk].max())
            if m == 0:
                continue
            decay = np.multiply.outer(lam_n[blk], ts[:m])
            np.multiply(-pair.a, decay, out=decay)
            np.exp(decay, out=decay)
            np.multiply(wf[blk, None], decay, out=decay)
            acc[:, :m] += kernel.apply(p, q, decay)
            applied += decay.size
    return acc, applied, kernel.exps + applied


def _apply(pair: TransformPair, xs, tpos, packs):
    """sum_j w_j F(lam_j) exp(i lam_j x - a lam_j^n t) for every (x, t > 0).

    Each pack is walked in blocks of whole panels of one width group
    against the times in increasing order, so a block is applied only to
    the prefix of times below its largest tau; nodes outward along a ray
    have falling tau.  One :class:`PhaseKernel` per pack shares each
    group's node phases across its blocks.  The packs are applied on the
    ``parallel_map`` workers, each into its own sums, which are added in
    pack order, so the values do not depend on the thread count.  Returns
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


def solve_grid(pair: TransformPair, datum, xs, ts) -> SolutionField:
    """Evaluate the solution on the grid xs x ts (xs > 0, ts >= 0).

    Raises :class:`ToleranceNotMet` naming the times whose values are not
    finite (the apply overflowed), rather than returning them.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if xs.size == 0 or ts.size == 0:
        raise ValueError("xs and ts must be nonempty")
    if xs.min() <= 0.0:
        raise NonpositiveX("solution grid requires x > 0")
    if ts.min() < 0.0:
        raise ValueError("times must be nonnegative")

    values = np.zeros((ts.size, xs.size), dtype=complex)
    nodes = applied = exponentials = 0
    pos = ts > 0.0
    if pos.any():
        packs = _packs(pair, datum, xs, ts[pos])
        nodes = sum(pack[0].size for pack in packs)
        evolved, applied, exponentials = _apply(pair, xs, ts[pos], packs)
        values[pos] = evolved
        bad = ~np.isfinite(values).all(axis=1)
        if bad.any():
            raise ToleranceNotMet(
                f"solution not finite at times {ts[bad].tolist()}")

    if (~pos).any():
        values[~pos] = pair.reconstruct(datum, xs)

    return SolutionField(xs=xs, ts=ts, values=values, nodes=nodes,
                         applied=applied, exponentials=exponentials)
