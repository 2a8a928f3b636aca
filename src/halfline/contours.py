"""Contour systems for the half-line solution representation.

The inversion contour has a component on the real line (indented above the
origin by a small semicircle) plus one component per decay sector

    { arg lam in (0, pi) : Re(a lam^n) < 0 },

each traversed with negative orientation as the boundary of
{ Im lam > 0, Re(a lam^n) < 0, |lam| > R }: in along the lower-angle ray,
anticlockwise along the arc |lam| = R, back out along the upper-angle ray.
For an admissible problem the number of sectors always equals the
boundary-condition count.

This module decides where every ray goes.  A ray pivots about its finite
endpoint by ``_TURN`` of the width it turns through, so arcs and junction
points stay put, and Cauchy's theorem keeps the integrals: the swept
wedges hold no singularity of the integrands, which decay inside them.
``turn_axis_rays`` gives the t = 0 system (inversion, type II,
representation): a sector ray on the real axis (reverse-time problems)
turns about its junction +-R into its own sector, where exp(i lam x)
decays.  ``deform_for_time`` turns every ray, for t > 0, into the adjacent
sector where exp(-a lam^n t) decays; rays on sector boundaries turn
outward, so the quadrature gains the exp(-c r^n t) envelope instead of
the marginal exp(i lam x).  The type-I truncation scan keeps the system of
``build_contours``: the divergence on the real axis is what it certifies.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

from .errors import NoComponents, NoDecaySector
from .problems import HalfLineProblem, classify, validate
from .quadrature import PathSegment

__all__ = ["ContourSystem", "decay_sectors", "build_contours", "turn_axis_rays",
           "deform_for_time"]

_ANGLE_SNAP = 1e-12
# a turned ray turns by this fraction of the width it turns through
_TURN = 0.5


def _sign_edges(n: int, a: complex):
    """Angles where Re(a e^{i n theta}) changes sign: an arithmetic
    progression with step pi/n."""
    phi = cmath.phase(a)
    first = (math.pi / 2.0 - phi) / n
    step = math.pi / n
    return first, step


def _evo_decays(theta: float, n: int, a: complex) -> bool:
    """True where exp(-a lam^n t) decays, i.e. Re(a e^{i n theta}) > 0."""
    return (a * cmath.exp(1j * n * theta)).real > 0.0


def decay_sectors(n: int, a: complex) -> list:
    """Sectors of (0, pi) where Re(a lam^n) < 0, ascending, endpoints
    snapped to 0 and pi."""
    first, step = _sign_edges(n, a)
    k_lo = math.floor((0.0 - first) / step) - 1
    k_hi = math.ceil((math.pi - first) / step) + 1
    edges = [first + k * step for k in range(k_lo, k_hi + 1)]
    cuts = sorted({0.0, math.pi, *(e for e in edges if _ANGLE_SNAP < e < math.pi - _ANGLE_SNAP)})
    out = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi - lo < 1e-9:
            continue
        mid = 0.5 * (lo + hi)
        if not _evo_decays(mid, n, a):
            out.append((lo, hi))
    return out


@dataclass(frozen=True)
class ContourSystem:
    """Real-line component plus one negatively oriented sector component
    per boundary condition."""

    n: int
    a: complex
    R: float
    delta: float
    sectors: tuple
    gamma0: tuple            # segments of the indented real contour
    gammas: tuple            # gammas[k-1] = segments of the k-th component

    @property
    def count(self) -> int:
        return len(self.gammas)


def build_contours(problem: HalfLineProblem, R: float) -> ContourSystem:
    """Undeformed contour system for a validated problem; the indentation
    radius is min(0.1, R / 10)."""
    validate(problem)
    n, a = problem.order, problem.a
    delta = min(0.1, R / 10.0)
    sectors = decay_sectors(n, a)
    expected = classify(n, a).count
    if not sectors:
        raise NoComponents(f"no decay sectors in the upper half plane for (n={n}, a={a})")
    if len(sectors) != expected:
        raise NoComponents(
            f"found {len(sectors)} sectors, expected {expected} for (n={n}, a={a})")
    gamma0 = (
        PathSegment.ray(-delta, math.pi, 0.0, math.inf, orientation=-1),
        PathSegment.arc(0.0, delta, math.pi, 0.0, orientation=1),
        PathSegment.ray(delta, 0.0, 0.0, math.inf, orientation=1),
    )
    gammas = []
    for lo, hi in sectors:
        gammas.append((
            PathSegment.ray(0.0, lo, R, math.inf, orientation=-1),
            PathSegment.arc(0.0, R, lo, hi, orientation=1),
            PathSegment.ray(0.0, hi, R, math.inf, orientation=1),
        ))
    return ContourSystem(n=n, a=a, R=R, delta=delta, sectors=tuple(sectors),
                         gamma0=gamma0, gammas=tuple(gammas))


def _pivot(seg: PathSegment, angle: float) -> PathSegment:
    """The infinite ray ``seg`` turned about its finite endpoint to ``angle``."""
    return PathSegment.ray(complex(seg.point(seg.r0)), angle, 0.0, math.inf,
                           orientation=seg.orientation)


def turn_axis_rays(cs: ContourSystem) -> ContourSystem:
    """The t = 0 system: an infinite sector ray on the real axis turns about
    its junction +-R into its own sector, by ``_TURN`` of the sector's
    width.  Arcs and off-axis rays are unchanged."""
    gammas = []
    for (lo, hi), segs in zip(cs.sectors, cs.gammas):
        turn = _TURN * (hi - lo)
        gammas.append(tuple(
            _pivot(seg, lo + turn if math.cos(seg.angle) > 0.0 else hi - turn)
            if not seg.finite and seg.on_real_axis else seg for seg in segs))
    return replace(cs, gammas=tuple(gammas))


def _rotation_target(angle: float, n: int, a: complex, side: str) -> float:
    """Rotated direction for a ray currently pointing along ``angle``, by
    ``_TURN`` of the way to the next sign edge.

    ``side`` picks the preferred rotation sense when both neighbors decay:
    "up" favors increasing angle, "down" decreasing.  Raises
    :class:`NoDecaySector` if neither neighboring sector decays.
    """
    eps = 1e-7 * math.pi / n
    up_ok = _evo_decays(angle + eps, n, a)
    down_ok = _evo_decays(angle - eps, n, a)
    if not up_ok and not down_ok:
        raise NoDecaySector(
            f"no adjacent decay sector at angle {angle:.6f} for (n={n}, a={a})")
    first, step = _sign_edges(n, a)
    if up_ok if (up_ok != down_ok) else (side == "up"):
        above = first + math.ceil((angle - first) / step + 1e-9) * step
        return angle + _TURN * (above - angle)
    below = first + math.floor((angle - first) / step - 1e-9) * step
    return angle - _TURN * (angle - below)


def deform_for_time(cs: ContourSystem) -> ContourSystem:
    """Rotate every ray into an adjacent evolution-decay sector.

    Rays pivot about their finite endpoint (the indentation endpoints
    +-delta for the real-line component, the arc junctions |lam| = R for
    the sector components), so arcs and junction points are unchanged.
    """
    def rotate(seg: PathSegment, side: str) -> PathSegment:
        return _pivot(seg, _rotation_target(seg.angle, cs.n, cs.a, side))

    # prefer rotating toward the upper half plane when both sides decay
    left, semi, right = cs.gamma0
    return replace(cs, gamma0=(rotate(left, "down"), semi, rotate(right, "up")),
                   gammas=tuple((rotate(inward, "down"), arc, rotate(out, "up"))
                                for inward, arc, out in cs.gammas))
