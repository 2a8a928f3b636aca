"""Spectral structure of the transform family.

Three families of checks:

* remainder structure: F_k[Sf] - lam^n F_k[f] is a polynomial in lam of
  degree < n whose coefficients come from the complementary boundary forms
  (:func:`remainder_polynomial`).  fhat cancels out of the difference, so
  :meth:`TransformPair.remainder` evaluates it from the boundary jet under
  the weights of F_k; :func:`remainder_report` compares that, for k = 0
  and the sectors alike, with the closed form's values on a circle;
* diagonalization defects: integrating exp(i lam x) times the closed-form
  remainder over a component tests whether the family diagonalizes the
  spatial operator directly (type I, remainder integral vanishes) or only
  after division by lam^n (type II).  Components with a ray on the real axis
  carry a polynomially growing oscillatory integrand there, so the type I
  integral diverges unless the remainder vanishes; a truncation scan
  detects that, on the contours of ``build_contours`` with their
  real-axis rays.  The type II integral is computed on every component,
  the real line included: there the integrand is a sum of monomials
  lam^(-p), integrated around the indentation above their pole and,
  beyond it, on vertical rays where exp(i lam x) decays; on a sector
  component it decays in the sector, so the t = 0 system of
  :func:`halfline.contours.turn_axis_rays`, with its real-axis rays turned
  into their sector, keeps the integral;
* representation identity: inverting lam^(-n) F_k[Sf] over the components,
  with the real-line contour genuinely indented above the origin, must
  reproduce f.  :func:`spectral_representation_check` takes those rows
  from :meth:`TransformPair.components` with ``represent``, which inverts
  F_k[f] in the same pass (one tail scan, shared fhat values on every
  sector ray), for a datum or a stack of data.

Every component integral runs on the contour engine of
:mod:`halfline.quadrature`; the real-line ones go through
:meth:`TransformPair.real_line_component`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contours import turn_axis_rays
from .errors import NonpositiveX
from .quadrature import ExpDecay, PathSegment, apply_phase, component_nodes
# perfbench/spans.py patches segment_nodes at this binding too
from .quadrature import segment_nodes  # noqa: F401

__all__ = [
    "RemainderReport",
    "TypeIReport",
    "TypeIIReport",
    "RepresentationReport",
    "remainder_polynomial",
    "remainder_report",
    "check_type_I",
    "check_type_II",
    "spectral_representation_check",
]


# ---------------------------------------------------------------------------
# polynomial remainders


def remainder_polynomial(pair, datum) -> np.ndarray:
    """Remainder coefficients (ascending) from the complementary forms: the
    remainder of every component equals sum_r (B_c u)_r M[1,r](lam) / (2 pi)
    with u the boundary jet."""
    u = datum.boundary_derivatives(pair.n)
    return (pair.forms.B_c @ u) @ pair.cm.coeffs[0] / (2.0 * np.pi)


@dataclass(frozen=True)
class RemainderReport:
    """Every component's remainder against the closed form.

    ``devs[k]`` is the largest deviation of component k's remainder from
    the closed form's values on the circle |lam| = R + 1.5, relative to
    the largest of those values.  ``passed`` holds when every deviation is
    at most ``tol``.
    """

    closed_form: np.ndarray
    devs: tuple
    tol: float
    passed: bool


def remainder_report(pair, datum, *, tol: float = 1e-12) -> RemainderReport:
    """Compare :meth:`TransformPair.remainder` of every component with the
    closed form at 4n + 7 points on the circle |lam| = R + 1.5, off the
    singular circle."""
    closed = remainder_polynomial(pair, datum)
    phis = np.linspace(0.0, 2.0 * np.pi, 4 * pair.n + 7, endpoint=False)
    lams = (pair.R + 1.5) * np.exp(1j * phis)
    ref = np.polynomial.polynomial.polyval(lams, closed)
    scale = max(float(np.abs(ref).max()), 1e-300)
    devs = tuple(float(np.abs(pair.remainder(datum, k, lams) - ref).max())
                 / scale for k in range(pair.N + 1))
    return RemainderReport(closed_form=closed, devs=devs, tol=tol,
                           passed=bool(max(devs) <= tol))


# ---------------------------------------------------------------------------
# remainder contour integrals


def _poly_ray_decay(x_min: float, seg: PathSegment, beta: np.ndarray,
                    inv_power: int, target: float) -> ExpDecay:
    """Envelope for exp(i lam x) lam^(-inv_power) P(lam) on an off-axis ray
    from a real base.

    The polynomial growth, bounded with |lam| <= |base| + r, is folded into
    the log scale at the eventual truncation radius, where the envelope
    reaches the log level ``target``, iterating until the radius
    stabilizes."""
    def mag(r):
        lam = abs(seg.base) + r
        return sum(abs(b) * lam ** max(j - inv_power, 0)
                   for j, b in enumerate(beta))

    s, r0 = math.sin(seg.angle), seg.r0
    log_scale = math.log(max(mag(r0), 1e-300))
    for _ in range(6):
        d = ExpDecay.linear(x_min * s, r0, log_scale)
        r1 = d.radius(target)
        new = math.log(max(mag(max(r1, r0)), 1e-300))
        if new <= log_scale + 1e-9:
            break
        log_scale = new
    return ExpDecay.linear(x_min * s, r0, log_scale)


def _poly_component_integral(pair, k: int, xs: np.ndarray, beta: np.ndarray,
                             inv_power: int, truncate: float | None = None):
    """Integral over component k of exp(i lam x) lam^(-inv_power) P(lam).

    With ``truncate`` every infinite ray of the ``build_contours`` component
    stops at that radius.  Otherwise the component is that of the t = 0
    system, its rays truncated by decay models sized for the polynomial
    growth; a real-axis ray turned into the sector keeps the integral when
    it converges there, deg P < inv_power."""
    n = pair.n
    x_min, x_max = float(xs.min()), float(xs.max())
    if truncate is None:
        segs = turn_axis_rays(pair.contours).gammas[k - 1]
    else:
        segs = [seg if seg.finite else PathSegment.ray(
                    seg.base, seg.angle, seg.r0, truncate, seg.orientation)
                for seg in pair.contours.gammas[k - 1]]

    def osc(seg):
        rate = seg.radius * (x_max + 1.0) + n if seg.kind == "arc" else x_max + 1.0
        return lambda u: rate

    def decay(seg):
        return _poly_ray_decay(x_min, seg, beta, inv_power,
                               pair.params.tail_log_target)

    nodes = component_nodes(segs, pair.params, osc, decay)
    lam, w = nodes
    vals = w * np.polynomial.polynomial.polyval(lam, beta)
    if inv_power:
        vals = vals * lam ** (-float(inv_power))
    return apply_phase(xs, nodes, vals)


@dataclass(frozen=True)
class TypeIReport:
    """Type-I verdict for component k, on the closed-form remainder.

    ``expected`` (the integral converges) holds exactly when no ray of the
    component lies on the real axis or the closed-form remainder is zero.
    Otherwise ``scan`` holds the largest |integral| over xs at three
    doubling truncation radii and ``drift`` the largest change of the
    complex integral between them, which marks it ``divergent`` above
    10 tol.  Else ``values`` holds |integral| at each x, ``scan`` is empty
    and ``drift`` is 0.
    """

    k: int
    expected: bool
    divergent: bool
    values: np.ndarray | None
    scan: tuple
    drift: float
    passed: bool


def check_type_I(pair, datum, k: int, xs, *, tol: float = 1e-6) -> TypeIReport:
    """Integral of exp(i lam x) times the closed-form remainder over
    component k.

    Vanishes when both rays leave the real axis or the remainder is zero;
    otherwise, with a ray on the axis, the polynomially growing oscillation
    diverges, which a truncation scan at doubling radii detects."""
    if not 1 <= k <= pair.N:
        raise ValueError(f"component index must be in 1..{pair.N}, got {k}")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if xs.min() <= 0.0:
        raise NonpositiveX("type I check requires x > 0")
    beta = remainder_polynomial(pair, datum)
    if beta.any() and any(seg.on_real_axis
                          for seg in pair.contours.gammas[k - 1]):
        base = max(8.0 * pair.R, 40.0)
        ints = [_poly_component_integral(pair, k, xs, beta, 0,
                                         truncate=base * 2.0 ** i)
                for i in range(3)]
        scan = tuple(float(np.abs(v).max()) for v in ints)
        drift = float(np.abs(np.diff(ints, axis=0)).max())
        divergent = bool(drift > 10.0 * tol)
        return TypeIReport(k=k, expected=False, divergent=divergent,
                           values=None, scan=scan, drift=drift,
                           passed=divergent)
    values = np.abs(_poly_component_integral(pair, k, xs, beta, 0))
    return TypeIReport(k=k, expected=True, divergent=False, values=values,
                       scan=(), drift=0.0, passed=bool(values.max() < tol))


@dataclass(frozen=True)
class TypeIIReport:
    k: int
    xs: np.ndarray
    residuals: np.ndarray
    passed: bool


def check_type_II(pair, datum, k: int, xs, *, tol: float = 1e-6) -> TypeIIReport:
    """Integral of exp(i lam x) lam^(-n) times the closed-form remainder
    P over component k; expected to vanish for every component and x > 0.

    For k = 0 the integrand is a sum of monomials whose only pole sits below
    the indented real contour: the central segment runs around the
    indentation and the tails on vertical rays, both by quadrature, so the
    value measures how well both vanish together.  A sector component is
    integrated on the t = 0 system, its real-axis rays turned into the
    sector, where exp(i lam x) lam^(-n) P(lam) decays."""
    if not 0 <= k <= pair.N:
        raise ValueError(f"component index must be in 0..{pair.N}, got {k}")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if xs.min() <= 0.0:
        raise NonpositiveX("type II check requires x > 0")
    n = pair.n
    beta = remainder_polynomial(pair, datum)
    if k == 0:
        vals = pair.real_line_component(
            None, xs, float(xs.max()) + 1.0, indented=True,
            monomials=[(n - j, b) for j, b in enumerate(beta) if b != 0.0])
    else:
        vals = _poly_component_integral(pair, k, xs, beta, n)
    res = np.abs(vals)
    return TypeIIReport(k=k, xs=xs, residuals=res, passed=bool(res.max() < tol))


# ---------------------------------------------------------------------------
# representation identity


@dataclass(frozen=True)
class RepresentationReport:
    xs: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    max_diff: float
    passed: bool


def spectral_representation_check(pair, datum, xs, *,
                                  tol: float = 1e-6) -> RepresentationReport:
    """Invert lam^(-n) F_k[Sf] over all components (real line indented above
    the origin) and compare with f itself; the reconstruction check covers
    the inversion of F_k[f].

    ``datum`` may be a :class:`~halfline.datum.DataStack`: ``lhs`` and
    ``rhs`` then have one row per datum and ``max_diff`` is the largest
    over them.  The rows come from :meth:`TransformPair.components` with
    ``represent``, which inverts F_k[f] in the same pass."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if xs.min() <= 0.0:
        raise NonpositiveX("representation check requires x > 0")
    rhs = datum.value(xs)
    parts = pair.components(datum, xs, represent=True)
    lhs = sum(part[1] for part in parts)
    diff = float(np.abs(lhs - rhs).max())
    return RepresentationReport(xs=xs, lhs=lhs, rhs=rhs, max_diff=diff,
                                passed=bool(diff < tol))
