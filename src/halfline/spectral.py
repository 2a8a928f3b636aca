"""Spectral structure of the transform family.

Three families of checks:

* remainder extraction: F_k[Sf] - lam^n F_k[f] is a polynomial in lam of
  degree < n whose coefficients come from the complementary boundary forms
  (:func:`remainder_closed_form`); :func:`remainder_report`, the one place
  that fits the sampled remainder, compares the fit of every transform,
  k = 0 and the sectors alike, against that closed form as complex
  coefficients and bounds the excess coefficients of a degree n + 1 fit;
* diagonalization defects: integrating exp(i lam x) times the closed-form
  remainder over a component tests whether the family diagonalizes the
  spatial operator directly (type I, remainder integral vanishes) or only
  after division by lam^n (type II).  Every such integral vanishes (or, on
  a real-axis ray, diverges) for any polynomial of degree < n, so a fit
  would add only its own noise.  Components with a ray on the real axis
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
from .errors import FitResidualTooLarge, NonpositiveX
from .quadrature import ExpDecay, PathSegment, apply_phase, component_nodes
# perfbench/spans.py patches segment_nodes at this binding too
from .quadrature import segment_nodes  # noqa: F401

__all__ = [
    "RemainderReport",
    "TypeIReport",
    "TypeIIReport",
    "RepresentationReport",
    "remainder_samples",
    "remainder_polynomial",
    "remainder_closed_form",
    "remainder_report",
    "check_type_I",
    "check_type_II",
    "spectral_representation_check",
]


# ---------------------------------------------------------------------------
# polynomial remainders


def remainder_samples(pair, datum, k: int):
    """(lams, F_k[Sf](lams) - lams^n F_k[f](lams)) at 4n + 7 points on the
    circle |lam| = R + 1.5, off the singular circle."""
    phis = np.linspace(0.0, 2.0 * np.pi, 4 * pair.n + 7, endpoint=False)
    lams = (pair.R + 1.5) * np.exp(1j * phis)
    vals = (pair.forward(datum, k, lams, applied=True)
            - lams ** pair.n * pair.forward(datum, k, lams))
    return lams, vals


def remainder_polynomial(pair, datum, k: int, *,
                         degree: int | None = None) -> np.ndarray:
    """Coefficients (ascending) of the polynomial remainder.

    ``degree`` defaults to n - 1 (the claimed bound); fitting with a larger
    basis exposes spurious high-order coefficients, which
    :func:`remainder_report` bounds as its ``excess``.  Raises
    :class:`FitResidualTooLarge` when the fit misses a sample by more than
    1e-7 of the largest sample plus 1e-12.
    """
    deg = pair.n - 1 if degree is None else int(degree)
    lams, vals = remainder_samples(pair, datum, k)
    V = np.vander(lams, deg + 1, increasing=True)
    coeffs, *_ = np.linalg.lstsq(V, vals, rcond=None)
    resid = float(np.abs(V @ coeffs - vals).max())
    scale = max(float(np.abs(vals).max()), 1e-300)
    if resid > 1e-7 * scale + 1e-12:
        raise FitResidualTooLarge(
            f"transform {k} remainder is not polynomial of degree <= {deg}: "
            f"fit residual {resid:.3e} against scale {scale:.3e}")
    return coeffs


def remainder_closed_form(pair, datum) -> np.ndarray:
    """Remainder coefficients from the complementary forms: the remainder
    equals sum_r (B_c u)_r M[1,r](lam) / (2 pi) with u the boundary jet."""
    u = datum.boundary_derivatives(pair.n)
    return (pair.forms.B_c @ u) @ pair.cm.coeffs[0] / (2.0 * np.pi)


@dataclass(frozen=True)
class RemainderReport:
    """Fitted remainder coefficients against the closed form.

    ``devs[k]`` is the largest deviation of component k's complex
    coefficients from the closed form, relative to the closed form's
    scale.  ``passed`` holds when every deviation is at most ``tol``.
    ``excess[k]`` is the largest coefficient of degree >= n in component
    k's degree n + 1 fit, relative to that fit's largest coefficient (at
    least 1e-6): the degree bound under over-fitting.
    """

    coeffs: np.ndarray
    closed_form: np.ndarray
    devs: tuple
    excess: tuple
    tol: float
    passed: bool


def remainder_report(pair, datum, *, tol: float = 1e-8) -> RemainderReport:
    """Fit the remainder for every component, at degree n - 1 to compare
    its complex coefficients with the closed form and at degree n + 1 to
    bound its excess coefficients."""
    n = pair.n
    closed = remainder_closed_form(pair, datum)
    scale = max(float(np.abs(closed).max()), 1e-6)
    coeffs = np.array([remainder_polynomial(pair, datum, k)
                       for k in range(pair.N + 1)])
    devs = tuple(float(np.abs(c - closed).max()) / scale for c in coeffs)
    overfits = [remainder_polynomial(pair, datum, k, degree=n + 1)
                for k in range(pair.N + 1)]
    excess = tuple(float(np.abs(b[n:]).max())
                   / max(float(np.abs(b).max()), 1e-6) for b in overfits)
    return RemainderReport(coeffs=coeffs, closed_form=closed, devs=devs,
                           excess=excess, tol=tol,
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
    beta = remainder_closed_form(pair, datum)
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
    beta = remainder_closed_form(pair, datum)
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
