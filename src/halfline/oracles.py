"""Independent ground-truth computations for the verification suite.

Everything in this module is deliberately disjoint from the production
quadrature: the order-2 baselines are the method-of-images solutions of
q_t = a q_xx on the half line, integrated against the datum on composite
Gauss-Legendre panels doubled until two rules agree, and PDE residuals use
finite-difference stencils.  Agreement between these oracles and the
transform pipeline is therefore evidence, not tautology.  The module uses
numpy alone.
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
    "stencil_coefficients",
    "fd_grid",
    "fd_residual",
]

# Gauss-Legendre nodes per panel of the images rule, and the cap on the
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


def _images(datum, x, t, sign: float, a: complex, tol: float) -> OracleResult:
    """int_0^L (K(x - y) + sign K(x + y)) f(y) dy with the heat kernel
    K(z) = exp(-z^2 / (4 a t)) / sqrt(4 pi a t), on the grid ts x xs, or
    scalar in, scalar out; the datum itself at t = 0.

    Each time starts from equal panels on the support [0, L] no wider than
    the kernel's width sqrt(4 |a| t), and doubles the panel count until the
    last two rules agree within ``tol`` at every x; the finer rule's values
    are returned and the worst agreement is ``est_error``.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if ts.min() < 0.0:
        raise ValueError(f"negative time t={ts.min()}")
    a = complex(a)
    if a == 0.0 or a.real < 0.0:
        raise ValueError(f"images sum needs Re a >= 0 and a != 0, got a={a}")
    L = float(datum.support)
    gx, gw = np.polynomial.legendre.leggauss(_PANEL_ORDER)
    rules = {}

    def images(panels: int, four_at: complex) -> np.ndarray:
        if panels not in rules:
            half = 0.5 * L / panels
            y = ((half * (2.0 * np.arange(panels) + 1.0))[:, None]
                 + half * gx).ravel()
            rules[panels] = y, np.tile(half * gw, panels) * datum.value(y)
        y, wf = rules[panels]
        kernel = lambda z: np.exp(-z * z / four_at)
        g = kernel(xs[:, None] - y) + sign * kernel(xs[:, None] + y)
        return (g @ wf) / np.sqrt(math.pi * four_at)

    values = np.empty((ts.size, xs.size), dtype=complex)
    est = np.zeros(ts.size)
    panels = [0] * ts.size
    for i, ti in enumerate(ts):
        if ti == 0.0:
            values[i] = datum.value(xs)
            continue
        four_at = 4.0 * a * ti
        p = 2 ** max(0, math.ceil(math.log2(L / math.sqrt(abs(four_at)))))
        prev, diff = None, math.inf
        while True:
            if p > _MAX_PANELS:
                raise ToleranceNotMet(
                    f"images sum at t={ti:g}: rules up to the cap of "
                    f"{_MAX_PANELS} panels differ by {diff:.2e} > {tol:.1e}",
                    est_error=diff)
            cur = images(p, four_at)
            if prev is not None:
                diff = float(np.abs(cur - prev).max())
                if diff <= tol:
                    break
            prev, p = cur, 2 * p
        values[i], est[i], panels[i] = cur, diff, p
    if np.ndim(x) or np.ndim(t):
        return OracleResult(values, float(est.max()), "images",
                            {"panels": panels})
    return OracleResult(complex(values[0, 0]), float(est[0]), "images",
                        {"panels": panels[0], "x": float(x), "t": float(t)})


def heat_dirichlet_solution(datum, x, t, *, tol: float = 1e-12,
                            a: complex = 1.0) -> OracleResult:
    """Half-line solution of q_t = a q_xx with q(0,t)=0 by the method of
    images (Carslaw & Jaeger, 1959):

    q(x,t) = int_0^L (K(x - y) - K(x + y)) f(y) dy,
    K(z) = exp(-z^2 / (4 a t)) / sqrt(4 pi a t),

    exact for every Re a >= 0.  Requires f(0) = 0 (datum compatible with
    the boundary condition) and t >= 0.  x and t may be arrays: the value
    then has shape (len(ts), len(xs)), like ``SolutionField.values``, and
    ``est_error`` is the worst over the grid.  Raises
    :class:`ToleranceNotMet` when two panel rules still differ by more than
    ``tol`` at the panel cap.
    """
    f0 = float(datum.value(0.0))
    if abs(f0) > 1e-12:
        raise ValueError(f"odd reflection needs f(0)=0, got {f0}")
    return _images(datum, x, t, -1.0, a, tol)


def heat_neumann_solution(datum, x, t, *, tol: float = 1e-12,
                          a: complex = 1.0) -> OracleResult:
    """Half-line solution of q_t = a q_xx with q_x(0,t)=0, the images sum
    with K(x - y) + K(x + y); arguments and results as for
    :func:`heat_dirichlet_solution`."""
    f1 = float(datum.derivative(1, 0.0))
    if abs(f1) > 1e-12:
        raise ValueError(f"even reflection needs f'(0)=0, got {f1}")
    return _images(datum, x, t, +1.0, a, tol)


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


def _stencil(n: int, x, t, h: float):
    """The tensor grid of :func:`fd_residual` and its layout: (xs, ts,
    xi, centered, first), with xi the space columns on the half-step
    lattice and first[j] the first time row of centre t_j, -2 where the
    time stencil is centred and 0 where it is one-sided."""
    offs = _space_offsets(n)
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
    return xs, ts, xi, centered, first


def fd_grid(n: int, x, t, h: float) -> tuple[np.ndarray, np.ndarray]:
    """The (xs, ts) at which :func:`fd_residual` with the same n, x, t and
    h calls its ``q_grid``: so a caller can prepare a solution for them."""
    return _stencil(n, x, t, h)[:2]


def fd_residual(q_grid, n: int, a: complex, x, t, h: float) -> OracleResult:
    """|q_t + a (-i d/dx)^n q| at (x, t) from finite differences.

    ``q_grid(xs, ts)`` must return solution values with shape
    (len(ts), len(xs)); it is called once, on :func:`fd_grid`'s points.
    Space and time derivatives use
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
    xs, ts, xi, centered, first = _stencil(n, x, t, h)
    vals = np.asarray(q_grid(xs, ts), dtype=complex)
    if vals.shape != (len(ts), len(xs)):
        raise ValueError(f"q_grid returned shape {vals.shape}, "
                         f"expected {(len(ts), len(xs))}")
    # vals[j, r, i, c]: centre (x_i, t_j), time row r, space column c
    vals = vals.reshape(first.size, 5, -1, len(xi))
    col = {j: c for c, j in enumerate(xi)}
    now = vals[np.arange(first.size), -first]
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
