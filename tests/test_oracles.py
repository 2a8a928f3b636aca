"""Independent reference rules: heat solutions, adaptive Simpson, stencils."""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from halfline import oracles, quadrature, transforms
from halfline.datum import InitialDatum, make_datum
from halfline.errors import ToleranceNotMet
from halfline.oracles import (
    OracleResult,
    adaptive_reference,
    fd_residual,
    heat_dirichlet_solution,
    heat_neumann_solution,
    stencil_coefficients,
)


def _images_reference(datum, x: float, t: float, sign: float) -> float:
    """Method-of-images heat solution: Gaussian kernel with a reflected
    source, - for an absorbing wall (Dirichlet), + for a reflecting one."""
    G = lambda z: mpmath.e ** (-z * z / (4 * t)) / mpmath.sqrt(4 * mpmath.pi * t)
    f = lambda y: (G(x - y) + sign * G(x + y)) * datum.value(float(y))
    with mpmath.workdps(25):
        return float(mpmath.quad(f, [0.0, datum.support / 2, datum.support]))


def _nested_quad_reference(datum, x: float, t: float, kernel: str,
                           tol: float = 1e-10) -> float:
    """The scalar form the grid oracle replaced: QUADPACK's oscillatory rule
    for the outer integral over lam, each integrand value a QUADPACK
    transform of a dense cubic spline of the datum."""
    L = datum.support
    grid = np.linspace(0.0, L, 4097)
    spline = CubicSpline(grid, datum.value(grid))
    lam_max = math.sqrt(math.log(1e18) / t)

    def outer(lam):
        F, _ = quad(spline, 0.0, L, weight=kernel, wvar=lam,
                    epsabs=tol * 1e-2, epsrel=tol * 1e-2, limit=200)
        return math.exp(-lam * lam * t) * F

    cycles = int(lam_max * max(x, 1.0) / math.pi) + 10
    val, _ = quad(outer, 0.0, lam_max, weight=kernel, wvar=x, epsabs=tol,
                  epsrel=tol, limit=max(200, 2 * cycles))
    return val * 2.0 / math.pi


@pytest.fixture(scope="module")
def heat_data(catalog):
    """(oracle, kernel, image sign, datum) for the sine and cosine forms."""
    pd, pn = catalog["heat-dirichlet"], catalog["heat-neumann"]
    return ((heat_dirichlet_solution, "sin", -1.0,
             make_datum(pd, pd.datum_kernel, seed=0)),
            (heat_neumann_solution, "cos", +1.0,
             make_datum(pn, pn.datum_kernel, seed=0)))


def test_heat_oracles_match_method_of_images(heat_data):
    """Sine and cosine spectral oracles agree with the image construction,
    also at the corners (1.5, 0.01) and (0.5, 1.0) of the verify grid."""
    for oracle, kernel, sign, datum in heat_data:
        for x, t in ((0.7, 0.05), (0.5, 0.2), (1.5, 0.01), (0.5, 1.0)):
            got = oracle(datum, x, t)
            want = _images_reference(datum, x, t, sign)
            assert got.est_error < 1e-8
            assert abs(got.value - want) < 1e-9, (kernel, x, t)


def test_heat_oracles_match_nested_quadpack_form(heat_data):
    """One grid call agrees with the nested scalar QUADPACK form at two
    (x, t) points per kernel."""
    xs, ts = np.array([0.7, 1.2]), np.array([0.05, 0.5])
    for oracle, kernel, _, datum in heat_data:
        got = oracle(datum, xs, ts).value
        for i, j in ((0, 0), (1, 1)):
            want = _nested_quad_reference(datum, xs[j], ts[i], kernel)
            assert abs(got[i, j] - want) < 1e-9, (kernel, xs[j], ts[i])


def test_heat_oracle_grid_equals_scalar_calls(heat_data):
    """A grid call has shape (len(ts), len(xs)) and equals the scalar calls;
    scalar input gives a scalar OracleResult."""
    xs = np.array([0.5, 1.0, 1.5])
    ts = np.array([0.01, 0.1, 1.0])
    for oracle, kernel, _, datum in heat_data:
        grid = oracle(datum, xs, ts)
        assert grid.value.shape == (3, 3)
        for i, t in enumerate(ts):
            for j, x in enumerate(xs):
                one = oracle(datum, float(x), float(t))
                assert isinstance(one.value, complex)
                assert one.meta["x"] == x and one.meta["t"] == t
                assert abs(one.value - grid.value[i, j]) < 1e-13, (kernel, x, t)


def test_heat_oracle_time_zero_returns_datum(heat_data):
    """At t = 0 the spectral integral runs to the fixed datum cutoff and
    returns the datum itself (x = 0.3 keeps the rule at 6144 nodes)."""
    for oracle, kernel, _, datum in heat_data:
        res = oracle(datum, 0.3, 0.0, tol=1e-8)
        assert res.meta["lambda_max"] == oracles._DATUM_LAMBDA_MAX
        assert res.est_error < 1e-7
        assert abs(res.value - datum.value(0.3)) < 1e-8, kernel


def test_heat_oracle_unmet_tolerance_raises(heat_data, monkeypatch):
    """Two spectral rules that still disagree at the panel cap raise
    instead of returning a degraded value."""
    monkeypatch.setattr(oracles, "_MAX_PANELS", 2)
    for oracle, _, _, datum in heat_data:
        with pytest.raises(ToleranceNotMet):
            oracle(datum, 1.5, 0.01)


def test_heat_oracles_are_independent_of_the_pipeline(heat_data, monkeypatch):
    """The oracle gives the same values with the production transform and
    node builders disabled."""
    want = [oracle(datum, 0.7, 0.05).value for oracle, _, _, datum in heat_data]

    def refuse(*args, **kwargs):
        raise AssertionError("oracle reached the production pipeline")

    monkeypatch.setattr(transforms.SupportTransform, "__call__", refuse)
    monkeypatch.setattr(transforms.TransformPair, "__init__", refuse)
    monkeypatch.setattr(quadrature, "segment_nodes", refuse)
    monkeypatch.setattr(transforms, "segment_nodes", refuse)
    for (oracle, _, _, datum), w in zip(heat_data, want):
        assert oracle(datum, 0.7, 0.05).value == w


def test_heat_oracles_reject_incompatible_data():
    """The sine form needs f(0) = 0, the cosine form f'(0) = 0, and both
    need t >= 0."""
    flat = InitialDatum((1.0, 0.5), seed=None)
    with pytest.raises(ValueError):
        heat_dirichlet_solution(flat, 0.5, 0.1)  # f(0) = 1
    with pytest.raises(ValueError):
        heat_neumann_solution(flat, 0.5, 0.1)  # f'(0) = 0.5
    ok = InitialDatum((0.0, 0.0, 1.0), seed=None)
    with pytest.raises(ValueError):
        heat_dirichlet_solution(ok, 0.5, -0.1)
    with pytest.raises(ValueError):
        heat_neumann_solution(ok, 0.5, -0.1)


def test_adaptive_reference_entire_function():
    """int e^z along a segment and along a bent polyline both give
    e^(1+i) - 1."""
    want = np.exp(1.0 + 1.0j) - 1.0
    res = adaptive_reference(np.exp, [0.0, 1.0 + 1.0j])
    assert abs(res.value - want) < 1e-12
    assert res.est_error < 1e-10
    bent = adaptive_reference(np.exp, [0.0, 1.0, 1.0 + 1.0j])
    assert abs(bent.value - want) < 1e-12
    assert bent.meta["segments"] == 2


def test_adaptive_reference_node_log_and_guards():
    """node_log records every evaluation point; degenerate paths raise."""
    log = []
    adaptive_reference(lambda z: z ** 2, [0.0, 2.0], node_log=log)
    assert len(log) >= 3
    assert all(isinstance(z, complex) for z in log)
    with pytest.raises(ValueError):
        adaptive_reference(np.exp, [1.0])


def test_oracle_result_rejects_negative_error():
    with pytest.raises(ValueError):
        OracleResult(value=1.0, est_error=-1e-3, method="x")


def test_stencil_coefficients_classic():
    """Second-derivative and first-derivative central weights."""
    np.testing.assert_allclose(stencil_coefficients(2, (-1, 0, 1)),
                               [1.0, -2.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(stencil_coefficients(1, (-1, 0, 1)),
                               [-0.5, 0.0, 0.5], atol=1e-12)


def test_stencil_coefficients_polynomial_exactness():
    """Weights recover h^k g^(k) exactly on polynomials of degree < p."""
    rng = np.random.default_rng(8)
    for _ in range(10):
        offs = np.sort(rng.choice(np.arange(-4, 5), size=6, replace=False))
        k = int(rng.integers(1, 5))
        c = stencil_coefficients(k, offs)
        coeffs = rng.standard_normal(6)  # degree 5 polynomial
        p = np.polynomial.Polynomial(coeffs)
        got = sum(ci * p(oi) for ci, oi in zip(c, offs))
        want = p.deriv(k)(0.0)
        assert abs(got - want) < 1e-8 * max(1.0, abs(want))
    with pytest.raises(ValueError):
        stencil_coefficients(3, (-1, 0, 1))


def _plane_wave_grid(lam0: float, n: int, a: complex):
    def q_grid(xs, ts):
        xs = np.asarray(xs, dtype=float)
        ts = np.asarray(ts, dtype=float)
        return (np.exp(-a * lam0 ** n * ts)[:, None]
                * np.exp(1j * lam0 * xs)[None, :])
    return q_grid


def test_fd_residual_vanishes_on_exact_solution():
    """Plane waves solve the evolution equation exactly; the residual is
    pure truncation noise."""
    n, a = 3, -1j
    res = fd_residual(_plane_wave_grid(0.3, n, a), n, a, x=1.0, t=0.5, h=0.01)
    assert res.value < 1e-6
    assert res.method == "fd_residual"
    assert res.meta["h"] == 0.01


def test_fd_residual_second_order_convergence():
    """Halving the step divides the residual by about four."""
    n, a = 3, -1j
    res = fd_residual(_plane_wave_grid(1.2, n, a), n, a, x=1.0, t=0.5, h=0.02)
    ratio = res.meta["coarse"] / res.value
    assert 3.5 < ratio < 4.5
    assert res.est_error == pytest.approx(
        abs(res.meta["coarse"] - res.value) / 3.0, rel=1e-6)


def test_fd_residual_one_sided_at_time_zero():
    """t smaller than the time step falls back to one-sided differences."""
    n, a = 2, 1.0
    res = fd_residual(_plane_wave_grid(0.7, n, a), n, a, x=0.8, t=0.0, h=5e-3)
    assert res.value < 1e-6


def test_fd_residual_guards():
    """Stencils crossing x = 0 and misshapen grids are refused."""
    n, a = 4, 1.0
    with pytest.raises(ValueError):
        fd_residual(_plane_wave_grid(0.5, n, a), n, a, x=0.001, t=0.1, h=0.01)
    bad_grid = lambda xs, ts: np.zeros((1, 1))
    with pytest.raises(ValueError):
        fd_residual(bad_grid, n, a, x=1.0, t=0.1, h=0.01)
