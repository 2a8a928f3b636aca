"""Independent ground-truth computations for the verification suite.

Everything in this module is deliberately disjoint from the production
quadrature: the heat baselines use the classical sine/cosine transform
representations, with the datum's transform from an adaptive vector-valued
Gauss-Kronrod rule and the spectral integral from composite Gauss-Legendre
panels doubled until two rules agree; complex line integrals use a
hand-rolled adaptive Simpson rule, and PDE residuals use finite-difference
stencils.  Agreement between these oracles and the transform pipeline is
therefore evidence, not tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad_vec

from .errors import ToleranceNotMet

__all__ = [
    "OracleResult",
    "heat_dirichlet_solution",
    "heat_neumann_solution",
    "adaptive_reference",
    "stencil_coefficients",
    "fd_residual",
]

# e^{-lam^2 t} below this is negligible against every tolerance in the suite
_GAUSS_EPS = 1e-18
# spectral tail bound for the datum itself, used only when t = 0
_DATUM_LAMBDA_MAX = 3000.0
# Gauss-Legendre nodes per panel of the spectral rule, and the cap on the
# panel count it may double to
_PANEL_ORDER = 32
_MAX_PANELS = 2 ** 11


@dataclass(frozen=True)
class OracleResult:
    """A reference value (or grid of values) with an error estimate and a
    method tag."""

    value: complex | np.ndarray
    est_error: float
    method: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (self.est_error >= 0.0):
            raise ValueError(f"negative error estimate {self.est_error}")


def _panel_rule(lam_max: float, panels: int):
    """Nodes and weights of equal Gauss-Legendre panels on [0, lam_max]."""
    x, w = np.polynomial.legendre.leggauss(_PANEL_ORDER)
    half = 0.5 * lam_max / panels
    mid = half * (2.0 * np.arange(panels) + 1.0)
    return (mid[:, None] + half * x).ravel(), np.tile(half * w, panels)


def _heat_solution(datum, xs: np.ndarray, ts: np.ndarray, kernel: str,
                   tol: float) -> OracleResult:
    """(2/pi) int_0^lam_max trig(lam x) e^{-lam^2 t} F(lam) dlam on the
    grid ts x xs, with F(lam) = int_0^L trig(lam y) f(y) dy.

    Each time starts from P and 2P equal panels, 2P sized so that a panel
    spans about 32 rad of the fastest phase (x + L) lam, and doubles the
    panel count until the last two rules agree within ``tol`` at every x.
    F at the new nodes of every unsettled time comes from one vector-valued
    adaptive Gauss-Kronrod pass over the support, accurate enough that its
    error moves a value by at most tol / 10.
    """
    trig = np.sin if kernel == "sin" else np.cos
    L = float(datum.support)
    omega = float(np.abs(xs).max()) + L
    lam_max = np.array([math.sqrt(math.log(1.0 / _GAUSS_EPS) / t) if t > 0.0
                        else _DATUM_LAMBDA_MAX for t in ts])
    # int_0^lam_max e^{-lam^2 t} dlam bounds the weight of an error in F
    reach = np.array([min(lm, 0.5 * math.sqrt(math.pi / t)) if t > 0.0 else lm
                      for lm, t in zip(lam_max, ts)])
    start = [min(2 ** max(0, math.ceil(math.log2(omega * lm / 64.0))),
                 _MAX_PANELS // 2) for lm in lam_max]
    batch = [(i, p) for i in range(ts.size) for p in (start[i], 2 * start[i])]
    panels = [2 * p for p in start]
    prev = [None] * ts.size
    values = np.empty((ts.size, xs.size))
    est = np.zeros(ts.size)
    while batch:
        rules = [_panel_rule(lam_max[i], p) for i, p in batch]
        lam = np.concatenate([r[0] for r in rules])
        todo = sorted({i for i, _ in batch})
        inner_tol = 0.1 * tol * (math.pi / 2.0) / float(reach[todo].max())
        # initial pieces of about 8 rad of the phase lam y: one 21-point
        # Gauss-Kronrod rule resolves each, so little is spent on bisection
        pieces = math.ceil(float(lam.max()) * L / 8.0)
        F, inner_err, info = quad_vec(
            lambda y: trig(lam * y) * datum.value(y), 0.0, L,
            epsabs=inner_tol, epsrel=0.0, norm="max", full_output=True,
            points=np.linspace(0.0, L, pieces + 1)[1:-1])
        if info.status != 0:
            raise ToleranceNotMet(
                f"{kernel} transform of the datum: {info.message} "
                f"(error {inner_err:.2e}, target {inner_tol:.2e})",
                est_error=inner_err)
        cuts = np.cumsum([r[0].size for r in rules])[:-1]
        diff = {}
        for (i, _), (lam_i, w_i), F_i in zip(batch, rules, np.split(F, cuts)):
            g = w_i * np.exp(-lam_i * lam_i * ts[i]) * F_i
            val = (2.0 / math.pi) * (trig(np.multiply.outer(xs, lam_i)) @ g)
            if prev[i] is not None:
                diff[i] = float(np.abs(val - prev[i]).max())
            prev[i] = val
        batch = []
        for i in todo:
            if diff[i] <= tol:
                values[i] = prev[i]
                est[i] = diff[i] + (2.0 / math.pi) * reach[i] * inner_err
                continue
            if 2 * panels[i] > _MAX_PANELS:
                raise ToleranceNotMet(
                    f"{kernel} transform at t={ts[i]:g}: {panels[i] // 2} and "
                    f"{panels[i]} spectral panels differ by {diff[i]:.2e} "
                    f"> {tol:.1e}", est_error=diff[i])
            panels[i] *= 2
            batch.append((i, panels[i]))
    return OracleResult(value=values.astype(complex),
                        est_error=float(est.max()) + _GAUSS_EPS,
                        method=f"{kernel}_transform",
                        meta={"lambda_max": lam_max, "panels": panels})


def _heat_grid(datum, x, t, kernel: str, tol: float) -> OracleResult:
    """Grid values with shape (len(ts), len(xs)), or scalar in, scalar out."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if ts.min() < 0.0:
        raise ValueError(f"negative time t={ts.min()}")
    res = _heat_solution(datum, xs, ts, kernel, tol)
    if np.ndim(x) or np.ndim(t):
        return res
    return OracleResult(value=complex(res.value[0, 0]),
                        est_error=res.est_error, method=res.method,
                        meta={"lambda_max": float(res.meta["lambda_max"][0]),
                              "panels": res.meta["panels"][0],
                              "x": float(x), "t": float(t)})


def heat_dirichlet_solution(datum, x, t, *, tol: float = 1e-10) -> OracleResult:
    """Half-line heat solution with q(0,t)=0 via the sine transform.

    q(x,t) = (2/pi) int_0^inf sin(lam x) e^{-lam^2 t} int_0^L sin(lam y) f(y) dy dlam

    Requires f(0) = 0 (datum compatible with the boundary condition) and
    t >= 0.  x and t may be arrays: the value then has shape
    (len(ts), len(xs)), like ``SolutionField.values``, and ``est_error``
    is the worst over the grid.  The spectral integral is truncated where
    the Gaussian factor drops below 1e-18; at t = 0 a fixed
    datum-bandwidth cutoff is used instead, which is slower and slightly
    less accurate.  Raises :class:`ToleranceNotMet` when the spectral rule
    or the datum's transform cannot reach ``tol``.
    """
    f0 = float(datum.value(0.0))
    if abs(f0) > 1e-12:
        raise ValueError(f"sine representation needs f(0)=0, got {f0}")
    return _heat_grid(datum, x, t, "sin", tol)


def heat_neumann_solution(datum, x, t, *, tol: float = 1e-10) -> OracleResult:
    """Half-line heat solution with q_x(0,t)=0 via the cosine transform;
    arguments and results as for :func:`heat_dirichlet_solution`."""
    f1 = float(datum.derivative(1, 0.0))
    if abs(f1) > 1e-12:
        raise ValueError(f"cosine representation needs f'(0)=0, got {f1}")
    return _heat_grid(datum, x, t, "cos", tol)


# -- adaptive Simpson reference ------------------------------------------

def _simpson(fa, fm, fb, h: complex) -> complex:
    return h * (fa + 4.0 * fm + fb) / 6.0


def _adapt(f, a: complex, b: complex, fa, fm, fb, whole: complex,
           tol: float, depth: int, log) -> tuple[complex, float]:
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    if log is not None:
        log.extend((lm, rm))
    left = _simpson(fa, flm, fm, m - a)
    right = _simpson(fm, frm, fb, b - m)
    diff = left + right - whole
    if depth <= 0 or abs(diff) <= 15.0 * tol:
        return left + right + diff / 15.0, abs(diff) / 15.0
    lv, le = _adapt(f, a, m, fa, flm, fm, left, tol / 2.0, depth - 1, log)
    rv, re = _adapt(f, m, b, fm, frm, fb, right, tol / 2.0, depth - 1, log)
    return lv + rv, le + re


def adaptive_reference(f, path, *, tol: float = 1e-12, max_depth: int = 48,
                       node_log: list | None = None) -> OracleResult:
    """Adaptive Simpson integral of ``f`` along straight segments in C.

    ``path`` is either a pair (z0, z1) or a sequence of waypoints; the
    integral is taken along the polyline.  ``node_log``, when given, collects
    every interior evaluation point in order, so tests can confirm this rule
    shares no node sequence with the production quadrature.
    """
    pts = [complex(z) for z in path]
    if len(pts) < 2:
        raise ValueError("path needs at least two points")
    total = 0.0 + 0.0j
    err = 0.0
    evals = 0
    for z0, z1 in zip(pts[:-1], pts[1:]):
        m = 0.5 * (z0 + z1)
        fa, fm, fb = f(z0), f(m), f(z1)
        if node_log is not None:
            node_log.extend((z0, m, z1))
        whole = _simpson(fa, fm, fb, z1 - z0)
        before = len(node_log) if node_log is not None else 0
        val, e = _adapt(f, z0, z1, fa, fm, fb, whole,
                        tol / max(1, len(pts) - 1), max_depth, node_log)
        total += val
        err += e
        evals += 3 + ((len(node_log) - before) if node_log is not None else 0)
    return OracleResult(value=total, est_error=err, method="adaptive_quad",
                        meta={"segments": len(pts) - 1, "evals": evals})


# -- finite-difference PDE residual ---------------------------------------

def stencil_coefficients(derivative: int, offsets) -> np.ndarray:
    """Weights c with sum_j c_j g(x + o_j h) = h^k g^(k)(x) + O(h^{k+p}).

    ``offsets`` are integer (or rational) multiples of the step; the weights
    solve the Vandermonde moment system exactly for polynomials of degree
    below len(offsets).
    """
    o = np.asarray(offsets, dtype=float)
    if o.size <= derivative:
        raise ValueError(f"{o.size} points cannot resolve derivative {derivative}")
    rhs = np.zeros(o.size)
    rhs[derivative] = math.factorial(derivative)
    V = np.vander(o, o.size, increasing=True).T
    return np.linalg.solve(V, rhs)


def _space_offsets(n: int) -> np.ndarray:
    # symmetric stencil: n+1 points for even n, n+2 for odd n, both give
    # a second-order truncation error
    p = n + 1 if n % 2 == 0 else n + 2
    half = (p - 1) // 2
    return np.arange(-half, half + 1, dtype=float)


def fd_residual(q_grid, n: int, a: complex, x: float, t: float, h: float,
                time_step: float | None = None) -> OracleResult:
    """|q_t + a (-i d/dx)^n q| at (x, t) from finite differences.

    ``q_grid(xs, ts)`` must return solution values with shape
    (len(ts), len(xs)).  Space and time derivatives use second-order
    stencils at steps h and h/2; the returned value is the fine-step
    residual and ``est_error`` is its Richardson error estimate.  The time
    stencil is centered, falling back to a one-sided second-order formula
    when t - k would be negative.
    """
    k = h if time_step is None else float(time_step)
    offs = _space_offsets(n)
    cs = stencil_coefficients(n, offs)

    # union grid at steps h and h/2, indexed on the half-step lattice
    xi = sorted({int(2 * o) for o in offs} | {int(o) for o in offs})
    xs = x + np.array(xi) * (h / 2.0)
    if xs.min() <= 0.0:
        raise ValueError(f"stencil at x={x}, h={h} leaves the half-line")
    centered = t - k >= 0.0
    if centered:
        ti = [-2, -1, 0, 1, 2]
    else:
        ti = [0, 1, 2, 3, 4]
    ts = t + np.array(ti) * (k / 2.0)
    vals = np.asarray(q_grid(xs, ts), dtype=complex)
    if vals.shape != (len(ts), len(xs)):
        raise ValueError(f"q_grid returned shape {vals.shape}, "
                         f"expected {(len(ts), len(xs))}")
    col = {j: c for j, c in zip(xi, range(len(xi)))}
    row = {j: r for j, r in zip(ti, range(len(ti)))}
    it = row[0]

    def residual(step_mult: int) -> complex:
        hh = step_mult * (h / 2.0)
        kk = step_mult * (k / 2.0)
        qx = sum(c * vals[it, col[int(o * step_mult)]]
                 for o, c in zip(offs, cs)) / hh ** n
        if centered:
            qt = (vals[row[step_mult], col[0]]
                  - vals[row[-step_mult], col[0]]) / (2.0 * kk)
        else:
            qt = (-3.0 * vals[it, col[0]]
                  + 4.0 * vals[row[step_mult], col[0]]
                  - vals[row[2 * step_mult], col[0]]) / (2.0 * kk)
        return qt + a * (-1j) ** n * qx

    coarse = residual(2)
    fine = residual(1)
    return OracleResult(value=abs(fine),
                        est_error=abs(coarse - fine) / 3.0,
                        method="fd_residual",
                        meta={"h": h, "time_step": k, "coarse": abs(coarse)})
