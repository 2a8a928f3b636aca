"""Independent reference rules: images sums, adaptive Simpson, stencils."""

import functools
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
    fd_residual,
    heat_dirichlet_solution,
    heat_neumann_solution,
    stencil_coefficients,
)

from conftest import adaptive_reference

_XS = np.array([0.5, 1.0, 1.5])
_TS = np.array([0.01, 0.1, 1.0])


@functools.lru_cache(maxsize=None)
def _datum_value(datum, y: float) -> float:
    """f(y), shared by the references' calls: mpmath puts the same nodes
    on the same pieces of the support at every (x, t)."""
    return float(datum.value(y))


def _images_reference(datum, x: float, t: float, sign: float,
                      a: complex = 1.0) -> complex:
    """Method-of-images solution of q_t = a q_xx at 25 digits: Gaussian
    kernel with a reflected source, - for an absorbing wall (Dirichlet), +
    for a reflecting one.  Four pieces of the support keep mpmath's rule
    below 1e-16 where the kernel is narrow (t = 0.01); two left 6e-14."""
    with mpmath.workdps(25):
        four_at = 4 * mpmath.mpmathify(a) * t
        G = lambda z: mpmath.exp(-z * z / four_at) / mpmath.sqrt(mpmath.pi * four_at)
        f = lambda y: (G(x - y) + sign * G(x + y)) * _datum_value(datum, float(y))
        return complex(mpmath.quad(f, mpmath.linspace(0, datum.support, 5)))


def _nested_quad_reference(datum, x: float, t: float, kernel: str,
                           tol: float = 1e-10) -> float:
    """The heat solution in its independent sine (Dirichlet) or cosine
    (Neumann) transform form: QUADPACK's oscillatory rule for the outer
    integral over lam, each integrand value a QUADPACK transform of a dense
    cubic spline of the datum."""
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
    """(oracle, kernel, image sign, datum) for the Dirichlet and Neumann
    forms."""
    pd, pn = catalog["heat-dirichlet"], catalog["heat-neumann"]
    return ((heat_dirichlet_solution, "sin", -1.0,
             make_datum(pd, pd.datum_kernel, seed=0)),
            (heat_neumann_solution, "cos", +1.0,
             make_datum(pn, pn.datum_kernel, seed=0)))


def test_heat_oracles_match_method_of_images(heat_data):
    """On the verify grid's narrow-kernel row (t = 0.01) and at its far
    corner (0.5, 1.0) both oracles lie within 1e-14 of the 25-digit images
    sum, with error estimates below their 1e-12 target."""
    for oracle, kernel, sign, datum in heat_data:
        for t, xs in ((0.01, _XS), (1.0, _XS[:1])):
            got = oracle(datum, xs, [t])
            want = [_images_reference(datum, x, t, sign) for x in xs]
            assert got.est_error < 1e-12
            assert np.abs(got.value[0] - want).max() < 1e-14, (kernel, t)


@pytest.mark.parametrize("form, a, x, t", [(0, np.exp(0.3j), 0.7, 0.05),
                                           (1, 1j, 1.2, 0.3)],
                         ids=["rotated-dirichlet", "schroedinger-neumann"])
def test_images_oracles_take_complex_a(heat_data, form, a, x, t):
    """Rotated heat (a = e^{0.3i}) and Schroedinger (a = i) agree with the
    25-digit images sum; a with Re a < 0 is refused."""
    oracle, _, sign, datum = heat_data[form]
    got = oracle(datum, x, t, a=a)
    assert got.est_error < 1e-12
    assert abs(got.value - _images_reference(datum, x, t, sign, a)) < 1e-14
    with pytest.raises(ValueError, match="Re a"):
        oracle(datum, x, t, a=-1.0 + 1j)


def test_heat_oracles_match_nested_quadpack_form(heat_data):
    """One grid call agrees with the sine/cosine transform form, nested
    scalar QUADPACK rules, at two (x, t) points per kernel."""
    xs, ts = np.array([0.7, 1.2]), np.array([0.05, 0.5])
    for oracle, kernel, _, datum in heat_data:
        got = oracle(datum, xs, ts).value
        for i, j in ((0, 0), (1, 1)):
            want = _nested_quad_reference(datum, xs[j], ts[i], kernel)
            assert abs(got[i, j] - want) < 1e-9, (kernel, xs[j], ts[i])


def test_heat_oracle_grid_equals_scalar_calls(heat_data):
    """A grid call has shape (len(ts), len(xs)) and equals the scalar calls;
    scalar input gives a scalar OracleResult."""
    for oracle, kernel, _, datum in heat_data:
        grid = oracle(datum, _XS, _TS)
        assert grid.value.shape == (3, 3)
        for i, t in enumerate(_TS):
            for j, x in enumerate(_XS):
                one = oracle(datum, float(x), float(t))
                assert isinstance(one.value, complex)
                assert one.meta["x"] == x and one.meta["t"] == t
                assert abs(one.value - grid.value[i, j]) < 1e-13, (kernel, x, t)


def test_heat_oracle_time_zero_returns_datum(heat_data):
    """At t = 0 the oracle returns the datum itself, with no panel rule,
    also as the first row of a grid."""
    for oracle, kernel, _, datum in heat_data:
        res = oracle(datum, 0.3, 0.0)
        assert res.value == datum.value(0.3) and res.est_error == 0.0, kernel
        assert res.meta["panels"] == 0
        grid = oracle(datum, _XS, np.array([0.0, 0.1]))
        np.testing.assert_array_equal(grid.value[0], datum.value(_XS))
        np.testing.assert_array_equal(grid.value[1],
                                      oracle(datum, _XS, [0.1]).value[0])


def test_heat_oracle_unmet_tolerance_raises(heat_data, monkeypatch):
    """Two panel rules that still disagree at the panel cap raise instead
    of returning a degraded value."""
    monkeypatch.setattr(oracles, "_MAX_PANELS", 2)
    for oracle, _, _, datum in heat_data:
        with pytest.raises(ToleranceNotMet, match="images sum at t=0.01"):
            oracle(datum, 1.5, 0.01)


def test_heat_oracle_doubles_panels_until_two_rules_agree(heat_data,
                                                          monkeypatch):
    """On the verify grid each time starts from panels no wider than the
    kernel and doubles them until two rules agree within 1e-12 (t = 0.01
    from 8 to 32 panels, t = 1 from 1 to 32); a coarse rule (Gauss order 4 for 32) doubles
    further and gives the default rule's values within the two error
    estimates."""
    for oracle, kernel, _, datum in heat_data:
        ref = oracle(datum, _XS, _TS)
        assert ref.meta["panels"] == [32, 32, 32], kernel
        with monkeypatch.context() as m:
            m.setattr(oracles, "_PANEL_ORDER", 4)
            coarse = oracle(datum, _XS, _TS)
        assert all(c > r for c, r in zip(coarse.meta["panels"],
                                          ref.meta["panels"])), kernel
        assert (np.abs(coarse.value - ref.value).max()
                <= coarse.est_error + ref.est_error), kernel


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
    """The Dirichlet form needs f(0) = 0, the Neumann form f'(0) = 0, and
    both need t >= 0."""
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


def test_fd_residual_array_centres_equal_scalar_calls():
    """Arrays of centres give the scalar calls' values on one tensor grid,
    fetched once; a centre with t < h takes the one-sided formula in both
    forms, beside centered ones."""
    n, a, h = 3, -1j, 0.01
    xs, ts = np.array([0.4, 0.8, 1.2]), np.array([0.005, 0.1, 0.5])
    fetched = []

    def q_grid(gx, gt):
        fetched.append((gx.size, gt.size))
        return _plane_wave_grid(1.2, n, a)(gx, gt)

    res = fd_residual(q_grid, n, a, xs, ts, h)
    assert fetched == [(3 * 7, 3 * 5)]
    assert res.value.shape == res.meta["coarse"].shape == (3, 3)
    singles = [[fd_residual(_plane_wave_grid(1.2, n, a), n, a, x, t, h)
                for x in xs] for t in ts]
    np.testing.assert_array_equal(
        res.value, [[s.value for s in row] for row in singles])
    np.testing.assert_array_equal(
        res.meta["coarse"], [[s.meta["coarse"] for s in row] for row in singles])
    assert res.est_error == max(s.est_error for row in singles for s in row)
    # the one-sided row is second order too
    assert 3.5 < res.meta["coarse"][0, 1] / res.value[0, 1] < 4.5


def test_fd_residual_array_guards():
    """An array stencil crossing x = 0 or a misshapen grid is refused."""
    n, a = 4, 1.0
    with pytest.raises(ValueError, match="leaves the half-line"):
        fd_residual(_plane_wave_grid(0.5, n, a), n, a,
                    np.array([0.001, 1.0]), np.array([0.1, 0.2]), 0.01)
    # a grid of one centre's shape for two centres
    bad_grid = lambda xs, ts: np.zeros((5, 5))
    with pytest.raises(ValueError, match="expected"):
        fd_residual(bad_grid, n, a, np.array([1.0, 1.5]), 0.1, 0.01)
