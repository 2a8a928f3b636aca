"""Independent ground-truth computations for the verification suite.

Everything in this module is deliberately disjoint from the production
quadrature: the heat baselines use the classical sine/cosine transform
representations, with the datum's transform from an adaptive vector-valued
Gauss-Kronrod rule and the spectral integral from composite Gauss-Legendre
panels doubled until two rules agree; complex line integrals use a
hand-rolled adaptive Simpson rule, and PDE residuals use finite-difference
stencils.  Agreement between these oracles and the transform pipeline is
therefore evidence, not tautology.

The datum's transform is QUADPACK's G10/K21 rule with its error estimate,
as scipy's ``quad_vec`` applies it, written in numpy: each round of
bisection evaluates the datum once at the nodes of every open interval, in
blocks of bounded size.  The module uses numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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

# QUADPACK's 21-point Kronrod rule on [-1, 1] and the 10-point Gauss rule
# on its odd-indexed nodes (the G10/K21 pair of scipy's quad_vec); the
# tables hold the nodes from 1 down to 0 and are mirrored
_KRONROD_HALF = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_KRONROD_WEIGHTS_HALF = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_GAUSS_WEIGHTS_HALF = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])
_GK_NODES = np.concatenate([_KRONROD_HALF, -_KRONROD_HALF[-2::-1]])
# column 0 the Kronrod weights, column 1 the Gauss weights (0 at the
# Kronrod-only nodes)
_GK_WEIGHTS = np.zeros((_GK_NODES.size, 2))
_GK_WEIGHTS[:, 0] = np.concatenate([_KRONROD_WEIGHTS_HALF,
                                    _KRONROD_WEIGHTS_HALF[-2::-1]])
_GK_WEIGHTS[1::2, 1] = np.concatenate([_GAUSS_WEIGHTS_HALF,
                                       _GAUSS_WEIGHTS_HALF[::-1]])
# lam x node entries in one block of the datum transform's integrand
_CHUNK_BUDGET = 2 ** 18
# subintervals the datum transform may split its support into (the
# default limit of quad_vec)
_MAX_SUBINTERVALS = 10_000
_TRIG = {"sin": np.sin, "cos": np.cos}


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


def _gk21_block(lam, trig, y, fy, h, rows: int):
    """K21 integrals of trig(lam y) f(y) over intervals with nodes ``y``
    (intervals x 21), f values ``fy`` and half-widths ``h``, shape
    (len(lam), intervals), and each interval's QUADPACK error estimate in
    the max norm over lam, ``rows`` values of lam at a time."""
    K = np.empty((lam.size, h.size))
    dk, dabs, kabs = np.zeros((3, h.size))
    kronrod = _GK_WEIGHTS[:, 0]
    for q in range(0, lam.size, rows):
        g = np.multiply.outer(lam[q:q + rows], y)
        trig(g, out=g)
        g *= fy
        # one (lam, interval) integrand per row
        flat = g.reshape(-1, _GK_NODES.size)
        kg = (flat @ _GK_WEIGHTS).reshape(g.shape[:2] + (2,))
        k = kg[..., 0]
        K[q:q + rows] = k
        np.maximum(dk, np.abs(k - kg[..., 1]).max(axis=0), out=dk)
        np.maximum(kabs, (np.abs(flat) @ kronrod).reshape(k.shape).max(axis=0),
                   out=kabs)
        # |f - K/2|, which flat views too
        g -= 0.5 * k[..., None]
        np.abs(g, out=g)
        np.maximum(dabs, (flat @ kronrod).reshape(k.shape).max(axis=0),
                   out=dabs)
    err, dabs = dk * h, dabs * h
    ratio = np.divide(200.0 * err, dabs, out=np.zeros_like(err),
                      where=dabs > 0.0)
    err = np.where(dabs > 0.0, dabs * np.minimum(1.0, ratio ** 1.5), err)
    # QUADPACK's round-off floor
    err = np.maximum(err, 50.0 * np.finfo(float).eps * h * kabs)
    K *= h
    return K, err


def _datum_transform(datum, lam: np.ndarray, kernel: str, tol: float):
    """F(lam) = int_0^L trig(lam y) f(y) dy at every lam, and the sum of
    the error estimates of the intervals it is made of.

    Adaptive G10/K21 quadrature in the max norm over lam, from pieces of
    about 8 rad of the phase lam y: one rule resolves each, so little is
    spent on bisection.  Each round evaluates the datum once at the nodes
    of every open interval, keeps an interval whose error is at most
    tol (b - a) / L and halves the others, so the kept errors sum to at
    most tol.  Raises :class:`ToleranceNotMet` when the open intervals
    would take the count past ``_MAX_SUBINTERVALS`` (an interval with a
    non-finite error is never kept).
    """
    trig = _TRIG[kernel]
    L = float(datum.support)
    edges = np.linspace(0.0, L, math.ceil(float(lam.max()) * L / 8.0) + 1)
    a, b = edges[:-1], edges[1:]
    # a block holds `width` intervals' nodes for `rows` values of lam
    nodes = _GK_NODES.size
    width = max(1, _CHUNK_BUDGET // (nodes * lam.size))
    rows = max(1, _CHUNK_BUDGET // (nodes * width))
    F = np.zeros(lam.size)
    err = 0.0
    kept = 0
    while a.size:
        open_err = 0.0
        h = 0.5 * (b - a)
        y = (0.5 * (a + b))[:, None] + h[:, None] * _GK_NODES
        fy = datum.value(y.ravel()).reshape(y.shape)
        split = np.empty(a.size, dtype=bool)
        for s in range(0, a.size, width):
            part = slice(s, s + width)
            K, e = _gk21_block(lam, trig, y[part], fy[part], h[part], rows)
            ok = e <= tol * (b[part] - a[part]) / L
            F += K @ ok.astype(float)
            err += float(e[ok].sum())
            open_err += float(e[~ok].sum())
            split[part] = ~ok
        kept += a.size - int(split.sum())
        mid = 0.5 * (a[split] + b[split])
        a = np.concatenate([a[split], mid])
        b = np.concatenate([mid, b[split]])
        if a.size and kept + a.size > _MAX_SUBINTERVALS:
            raise ToleranceNotMet(
                f"{kernel} transform of the datum: {a.size // 2} intervals "
                f"still open beside {kept} kept, past {_MAX_SUBINTERVALS} "
                f"subintervals (error {err + open_err:.2e}, target "
                f"{tol:.2e})", est_error=err + open_err)
    return F, err


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
    trig = _TRIG[kernel]
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
        F, inner_err = _datum_transform(datum, lam, kernel, inner_tol)
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


def fd_residual(q_grid, n: int, a: complex, x, t, h: float) -> OracleResult:
    """|q_t + a (-i d/dx)^n q| at (x, t) from finite differences.

    ``q_grid(xs, ts)`` must return solution values with shape
    (len(ts), len(xs)); it is called once.  Space and time derivatives use
    second-order stencils at steps h and h/2, in x and in t alike; the
    returned value is the fine-step residual and ``est_error`` is its
    Richardson error estimate.  The time stencil is centered, falling back
    to a one-sided second-order formula at a t where t - h would be
    negative.  x and t may be arrays of centres: their stencils then form
    one tensor grid, ``value`` and ``meta["coarse"]`` have shape
    (len(t), len(x)), and ``est_error`` is the worst over the centres.
    """
    offs = _space_offsets(n)
    cs = stencil_coefficients(n, offs)

    # each centre's points at steps h and h/2 on the half-step lattice:
    # columns xi about every x, rows -2..2 about every t (0..4 one-sided)
    xi = sorted({int(2 * o) for o in offs} | {int(o) for o in offs})
    xc = np.atleast_1d(np.asarray(x, dtype=float))
    tc = np.atleast_1d(np.asarray(t, dtype=float))
    xs = (xc[:, None] + np.array(xi) * (h / 2.0)).ravel()
    if xs.min() <= 0.0:
        raise ValueError(f"stencil at x={x}, h={h} leaves the half-line")
    centered = tc - h >= 0.0
    first = np.where(centered, -2, 0)
    ts = (tc[:, None] + (first[:, None] + np.arange(5)) * (h / 2.0)).ravel()
    vals = np.asarray(q_grid(xs, ts), dtype=complex)
    if vals.shape != (len(ts), len(xs)):
        raise ValueError(f"q_grid returned shape {vals.shape}, "
                         f"expected {(len(ts), len(xs))}")
    # vals[j, r, i, c]: centre (x_i, t_j), time row r, space column c
    vals = vals.reshape(tc.size, 5, xc.size, len(xi))
    col = {j: c for c, j in enumerate(xi)}
    now = vals[np.arange(tc.size), -first]
    mid = vals[:, :, :, col[0]]
    both, ahead = mid[centered], mid[~centered]

    def residual(step_mult: int) -> np.ndarray:
        hh = step_mult * (h / 2.0)
        qx = sum(c * now[:, :, col[int(o * step_mult)]]
                 for o, c in zip(offs, cs)) / hh ** n
        qt = np.empty_like(qx)
        qt[centered] = (both[:, 2 + step_mult]
                        - both[:, 2 - step_mult]) / (2.0 * hh)
        qt[~centered] = (-3.0 * ahead[:, 0] + 4.0 * ahead[:, step_mult]
                         - ahead[:, 2 * step_mult]) / (2.0 * hh)
        return qt + a * (-1j) ** n * qx

    coarse = residual(2)
    fine = residual(1)
    value, coarse_abs = np.abs(fine), np.abs(coarse)
    if not (np.ndim(x) or np.ndim(t)):
        value, coarse_abs = float(value[0, 0]), float(coarse_abs[0, 0])
    return OracleResult(value=value,
                        est_error=float(np.abs(coarse - fine).max()) / 3.0,
                        method="fd_residual",
                        meta={"h": h, "coarse": coarse_abs})
