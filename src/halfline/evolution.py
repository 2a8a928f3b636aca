"""Time evolution of half-line initial-boundary problems.

The solution at time t multiplies each forward transform by the decay
factor exp(-a lam^n t) before inversion.  On the undeformed contours that
factor merely oscillates along the rays (they bound the decay regions), so
every ray is first rotated into the adjacent region where Re(a lam^n) > 0;
the integrands are entire and decay between the old and new rays, so the
values are unchanged while the factor becomes exponentially small along the
new rays.  Node sets are built once per (datum, xs, ts) batch: truncation
radii come from the smallest positive time, oscillation rates from the
largest, and the cached transform values are reused for every t: all
positive times are applied in one matrix product per segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contours import deform_for_time
from .errors import DeformationRequired, NonpositiveX
from .quadrature import ExpDecay, segment_nodes
from .transforms import TransformPair
from .util import parallel_map

__all__ = ["SolutionField", "solve_at", "solve_grid"]

_DECAY_MARGIN = 0.5
_SCALE_MARGIN = 1.5


@dataclass(frozen=True)
class SolutionField:
    """Solution values on a (t, x) grid; values[i, j] = q(xs[j], ts[i])."""

    xs: np.ndarray
    ts: np.ndarray
    values: np.ndarray
    problem_label: str = ""
    datum_label: str = ""

    def at(self, x: float, t: float) -> complex:
        i = int(np.argmin(np.abs(self.ts - t)))
        j = int(np.argmin(np.abs(self.xs - x)))
        return complex(self.values[i, j])


def _ray_decay(pair: TransformPair, seg, k: int, t_min: float,
               x_min: float, x_max: float, support: float,
               scale: float) -> ExpDecay:
    """Envelope for |exp(i lam x - a lam^n t) F_k| along a rotated ray.

    The order-n term uses half the asymptotic coefficient, which bounds the
    true exponent for radii past the pivot; the linear term collects the
    worst-case x factor and the support growth of the shifted transforms.
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


def _segment_pack(pair: TransformPair, datum, seg, k: int, t_min: float,
                  t_max: float, x_min: float, x_max: float):
    """(lam, w, F_k(lam)) for one deformed segment, shared across times."""
    n = pair.n
    L = datum.support

    pole = pair.junction_osc(seg, 0.0) if k >= 1 else (lambda u: 0.0)
    if seg.kind == "arc":
        r = seg.radius
        rate = r * (x_max + L) + n * t_max * r ** n
        osc = lambda u: rate + pole(u)
        lam, w = segment_nodes(seg, pair.params, osc=osc)
    else:
        base = abs(seg.base)
        osc = lambda u: (x_max + L) + n * t_max * (base + u) ** (n - 1) + pole(u)
        jun = np.array([seg.point(seg.r0)], dtype=complex)
        scale = max(float(np.abs(pair.forward(datum, k, jun)).max()), 1e-12)
        decay = _ray_decay(pair, seg, k, t_min, x_min, x_max, L, scale)
        lam, w = segment_nodes(seg, pair.params, osc=osc, decay=decay)
    return lam, w, pair.forward(datum, k, lam)


def solve_grid(pair: TransformPair, datum, xs, ts, *,
               theta_fraction: float = 0.5, contours=None) -> SolutionField:
    """Evaluate the solution on the grid xs x ts (xs > 0, ts >= 0)."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if xs.size == 0 or ts.size == 0:
        raise ValueError("xs and ts must be nonempty")
    if xs.min() <= 0.0:
        raise NonpositiveX("solution grid requires x > 0")
    if ts.min() < 0.0:
        raise ValueError("times must be nonnegative")

    values = np.zeros((ts.size, xs.size), dtype=complex)
    pos = ts > 0.0
    if pos.any():
        if contours is None:
            dcs = deform_for_time(pair.contours, theta_fraction=theta_fraction)
        else:
            dcs = contours
            if not dcs.deformed:
                raise DeformationRequired(
                    "positive times need contours rotated off the neutral rays")
        t_min = float(ts[pos].min())
        t_max = float(ts[pos].max())
        x_min, x_max = float(xs.min()), float(xs.max())

        jobs = [(seg, 0) for seg in dcs.gamma0]
        for k in range(1, pair.N + 1):
            jobs += [(seg, k) for seg in dcs.gammas[k - 1]]
        packs = parallel_map(
            lambda job: _segment_pack(pair, datum, job[0], job[1],
                                      t_min, t_max, x_min, x_max),
            jobs)

        a, n = pair.a, pair.n
        tpos = ts[pos]
        for lam, w, F in packs:
            phase = np.exp(1j * np.multiply.outer(xs, lam))
            decay = np.exp(-a * np.multiply.outer(lam ** n, tpos))
            values[pos] += (phase @ ((w * F)[:, None] * decay)).T

    if (~pos).any():
        row = pair.reconstruct(datum, xs)
        for i, t in enumerate(ts):
            if t <= 0.0:
                values[i] = row

    return SolutionField(xs=xs, ts=ts, values=values,
                         problem_label=pair.problem.label,
                         datum_label=getattr(datum, "label", ""))


def solve_at(pair: TransformPair, datum, x: float, t: float, *,
             theta_fraction: float = 0.5) -> complex:
    """Solution value at a single point (x > 0, t >= 0)."""
    field = solve_grid(pair, datum, [x], [t], theta_fraction=theta_fraction)
    return complex(field.values[0, 0])
