"""Spectral structure of the transform family.

Three families of checks:

* remainder extraction: F_k[Sf] - lam^n F_k[f] is a polynomial in lam of
  degree < n whose coefficients come from the complementary boundary forms;
  the fit is compared against that closed form, exactly for k = 0 and in
  magnitude for the sector transforms (whose sign pattern depends on the
  branch ordering);
* diagonalization defects: integrating exp(i lam x) times the remainder
  over a component tests whether the family diagonalizes the spatial
  operator directly (type I, remainder integral vanishes) or only after
  division by lam^n (type II).  Components with a ray on the real axis
  carry a polynomially growing oscillatory integrand there, so the type I
  integral diverges; the check detects that by a truncation scan and
  expects it of exactly those components.  The
  type II integral is computed on every component, the real line included:
  there the integrand is a sum of monomials lam^(-p), integrated around the
  indentation above their pole and restored exactly beyond it;
* representation identity: inverting lam^(-n) F_k[Sf] over the components,
  with the real-line contour genuinely indented above the origin, must
  reproduce the same values as inverting F_k[f].

Every component integral runs on the contour engine of
:mod:`halfline.quadrature`; the real-line ones go through
:meth:`TransformPair.real_line_component`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FitResidualTooLarge, NonpositiveX
from .quadrature import (ExpDecay, PathSegment, apply_phase, component_nodes,
                         ray_monomial_tail)
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
    basis exposes spurious high-order coefficients, which callers can then
    bound directly.  Raises :class:`FitResidualTooLarge` when the fit
    misses a sample by more than 1e-7 of the largest sample plus 1e-12.
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
    bc = pair.forms.B_c @ u
    out = np.zeros(pair.n, dtype=complex)
    for r in range(pair.m):
        out += bc[r] * pair.cm.coeffs[0, r]
    return out / (2.0 * np.pi)


@dataclass(frozen=True)
class RemainderReport:
    """Fitted remainder coefficients against the closed form.

    ``devs[k]`` is the deviation of component k relative to the closed
    form's scale: of the coefficients for k = 0, of their magnitudes for
    k >= 1.  ``passed`` holds when every deviation is at most ``tol``.
    """

    coeffs: np.ndarray
    closed_form: np.ndarray
    devs: tuple
    tol: float
    passed: bool


def remainder_report(pair, datum, *, tol: float = 1e-8) -> RemainderReport:
    """Fit the remainder for every component and compare with the closed
    form: equality at k = 0, coefficient magnitudes for the sectors."""
    closed = remainder_closed_form(pair, datum)
    scale = max(float(np.abs(closed).max()), 1e-6)
    coeffs = np.array([remainder_polynomial(pair, datum, k)
                       for k in range(pair.N + 1)])
    devs = (float(np.abs(coeffs[0] - closed).max()) / scale,) + tuple(
        float(np.abs(np.abs(coeffs[k]) - np.abs(closed)).max()) / scale
        for k in range(1, pair.N + 1))
    return RemainderReport(coeffs=coeffs, closed_form=closed, devs=devs,
                           tol=tol, passed=bool(max(devs) <= tol))


# ---------------------------------------------------------------------------
# remainder contour integrals


def _poly_ray_decay(x_min: float, s: float, beta: np.ndarray, r0: float,
                    inv_power: int, tol: float) -> ExpDecay:
    """Envelope for exp(i lam x) lam^(-inv_power) P(lam) on an off-axis ray.

    The polynomial growth is folded into the log scale at the eventual
    truncation radius, iterating until the radius stabilizes."""
    mag = sum(abs(b) * r0 ** max(j - inv_power, 0) for j, b in enumerate(beta))
    log_scale = math.log(max(mag, 1e-300))
    target = math.log(tol / 10.0)
    for _ in range(6):
        d = ExpDecay.linear(x_min * s, r0, log_scale)
        r1 = d.radius(target)
        mag1 = sum(abs(b) * max(r1, r0) ** max(j - inv_power, 0)
                   for j, b in enumerate(beta))
        new = math.log(max(mag1, 1e-300))
        if new <= log_scale + 1e-9:
            break
        log_scale = new
    return ExpDecay.linear(x_min * s, r0, log_scale)


def _poly_component_integral(pair, k: int, xs: np.ndarray, beta: np.ndarray,
                             inv_power: int, truncate: float | None = None):
    """Integral over component k of exp(i lam x) lam^(-inv_power) P(lam).

    With ``truncate`` every infinite ray stops at that radius.  Otherwise
    off-axis rays use decay models sized for the polynomial growth, and
    real-axis rays exact exponential-integral tails, which need
    inv_power > 0."""
    n = pair.n
    x_min, x_max = float(xs.min()), float(xs.max())
    segs = pair.contours.gammas[k - 1]
    if truncate is not None:
        segs = [seg if seg.finite else PathSegment.ray(
                    seg.base, seg.angle, seg.r0, truncate, seg.orientation)
                for seg in segs]

    def osc(seg):
        rate = seg.radius * (x_max + 1.0) + n if seg.kind == "arc" else x_max + 1.0
        return lambda u: rate

    def decay(seg):
        return _poly_ray_decay(x_min, math.sin(seg.angle), beta, seg.r0,
                               inv_power, pair.params.abs_tol)

    lam, w, panels, axis_rays = component_nodes(segs, pair.params, osc, decay)
    vals = w * np.polynomial.polynomial.polyval(lam, beta)
    if inv_power:
        vals = vals * lam ** (-float(inv_power))
    out = apply_phase(xs, panels, vals)
    for seg in axis_rays:
        if inv_power <= 0:
            raise ValueError("real-axis ray with growing integrand "
                             "needs a truncation radius")
        for i, x in enumerate(xs):
            acc = 0.0 + 0.0j
            for j, b in enumerate(beta):
                if b != 0.0:
                    acc += b * ray_monomial_tail(seg.angle, seg.r0,
                                                 float(x), inv_power - j)
            out[i] += seg.orientation * acc
    return out


@dataclass(frozen=True)
class TypeIReport:
    """Type-I verdict for component k.

    ``expected`` (the integral converges) holds exactly when no ray of the
    component lies on the real axis.  A component with such a ray is
    scanned: ``scan`` holds the largest |integral| over xs at three
    doubling truncation radii and ``drift`` the largest step between
    them, which marks it ``divergent`` above 10 tol.  Otherwise ``values``
    holds |integral| at each x, ``scan`` is empty and ``drift`` is 0.
    """

    k: int
    expected: bool
    divergent: bool
    values: np.ndarray | None
    scan: tuple
    drift: float
    passed: bool


def check_type_I(pair, datum, k: int, xs, *, tol: float = 1e-6) -> TypeIReport:
    """Integral of exp(i lam x) times the remainder over component k.

    Vanishes when both rays leave the real axis; with a ray on the axis the
    polynomially growing oscillation diverges, which a truncation scan at
    doubling radii detects."""
    if not 1 <= k <= pair.N:
        raise ValueError(f"component index must be in 1..{pair.N}, got {k}")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if xs.min() <= 0.0:
        raise NonpositiveX("type I check requires x > 0")
    beta = remainder_polynomial(pair, datum, k)
    if any(seg.on_real_axis for seg in pair.contours.gammas[k - 1]):
        base = max(8.0 * pair.R, 40.0)
        scan = tuple(
            float(np.abs(_poly_component_integral(
                pair, k, xs, beta, 0, truncate=base * 2.0 ** i)).max())
            for i in range(3))
        drift = max(abs(scan[1] - scan[0]), abs(scan[2] - scan[1]))
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
    """Integral of exp(i lam x) lam^(-n) times the remainder over component
    k; expected to vanish for every component and x > 0.

    For k = 0 the integrand is a sum of monomials whose only pole sits below
    the indented real contour: the central segment runs around the
    indentation by quadrature and the tails are summed exactly with
    exponential integrals, so the value measures how well both vanish
    together.  For sectors the real-axis rays are summed exactly with
    exponential integrals and the rest by quadrature."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if xs.min() <= 0.0:
        raise NonpositiveX("type II check requires x > 0")
    n = pair.n
    if k == 0:
        beta = remainder_closed_form(pair, datum)
        vals = pair.real_line_component(
            None, xs, float(xs.max()) + 1.0, indented=True,
            monomials=[(n - j, b) for j, b in enumerate(beta) if b != 0.0])
    else:
        beta = remainder_polynomial(pair, datum, k)
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
    the origin) and compare with the inversion of F_k[f]."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if xs.min() <= 0.0:
        raise NonpositiveX("representation check requires x > 0")
    n = pair.n
    rhs = pair.reconstruct(datum, xs)

    # lam^(-n) F_0[Sf] keeps the real-data symmetry: the parity of lam^(-n)
    # cancels against that of the transform of Sf
    lhs = pair.real_line_component(
        lambda lam: pair.forward(datum, 0, lam, applied=True) * lam ** (-float(n)),
        xs, float(xs.max()) + datum.support, indented=True)
    for k in range(1, pair.N + 1):
        lhs += pair.sector_component(datum, k, xs, applied=True, inv_power=n)

    diff = float(np.abs(lhs - rhs).max())
    return RepresentationReport(xs=xs, lhs=lhs, rhs=rhs, max_diff=diff,
                                passed=bool(diff < tol))
