"""Initial-datum construction: exact boundary jets, independent value oracle."""

import math

import mpmath
import numpy as np
import pytest

from halfline.datum import _EDGE, DataStack, InitialDatum, make_datum
from halfline.errors import (CoeffsNotInKernel, ComplexCoefficientsDisallowed,
                             SupportMismatch)
from halfline.problems import HalfLineProblem


def _oracle_mp(datum, x):
    """Recompute f(x) from the datum's recorded parameters with mpmath.

    Uses the same piecewise definition (polynomial times smoothstep cutoff
    plus bumps) but evaluates it with arbitrary-precision scalars and no
    jet arithmetic; the bump parameters are taken as recorded data.  Keeps
    mpf precision end to end so mpmath.diff can differentiate it; callers
    set the working precision.
    """
    xm = mpmath.mpf(x)
    if xm < 0:
        return mpmath.mpf(0)
    L = mpmath.mpf(datum.support)
    x1 = L / 2
    width = L - x1
    g = lambda u: mpmath.e ** (-1 / u)

    poly = sum(mpmath.mpf(c) / mpmath.factorial(j) * xm ** j
               for j, c in enumerate(datum.kernel_coeffs))
    s = (xm - x1) / width
    if s <= _EDGE:
        total = poly
    elif s < 1 - _EDGE:
        total = poly * g(1 - s) / (g(s) + g(1 - s))
    else:
        total = mpmath.mpf(0)
    for amp, c, w in datum._bumps:
        u = (xm - c) / w
        if abs(u) < 1 - _EDGE:
            total += amp * mpmath.e ** (1 - 1 / (1 - u * u))
    return total * datum.amplitude


def _oracle_value(datum, x: float) -> float:
    with mpmath.workdps(40):
        return float(_oracle_mp(datum, x))


def test_value_matches_mpmath_oracle(catalog):
    """Datum values agree with the arbitrary-precision reconstruction."""
    for name in ("heat-dirichlet", "robin-4"):
        prob = catalog[name]
        datum = make_datum(prob, prob.datum_kernel, seed=0)
        for x in (0.0, 0.1, 0.3, 0.45, 0.55, 0.62, 0.8, 0.93, 0.999, 1.0, 1.5, -0.2):
            got = datum.value(x)
            want = _oracle_value(datum, x)
            assert abs(got - want) < 1e-13 * max(1.0, abs(want)), (name, x)


def test_derivatives_match_mpmath_diff(catalog):
    """Jet-based derivatives agree with mpmath numerical differentiation of
    the oracle, including inside the cutoff transition and bump interiors."""
    prob = catalog["heat-dirichlet"]
    datum = make_datum(prob, prob.datum_kernel, seed=0)
    f = lambda x: _oracle_mp(datum, x)
    for x in (0.3, 0.62, 0.8):
        for k in (1, 2, 3, 4):
            got = datum.derivative(k, x)
            with mpmath.workdps(40):
                want = float(mpmath.diff(f, mpmath.mpf(x), k))
            scale = max(1.0, abs(want))
            assert abs(got - want) < 1e-10 * scale, (x, k, got, want)


def test_derivative_richardson_consistency(catalog):
    """First and second jet derivatives match centered differences of value()
    with the expected h^2 convergence."""
    prob = catalog["lkdv-dirichlet"]
    datum = make_datum(prob, prob.datum_kernel, seed=3)
    x = 0.67
    for k, stencil in ((1, lambda h: (datum.value(x + h) - datum.value(x - h)) / (2 * h)),
                       (2, lambda h: (datum.value(x + h) - 2 * datum.value(x)
                                      + datum.value(x - h)) / h ** 2)):
        exact = datum.derivative(k, x)
        e1 = abs(stencil(1e-3) - exact)
        e2 = abs(stencil(5e-4) - exact)
        assert e1 < 1e-3
        assert 0.15 < e2 / e1 < 0.35  # quartered per halving


def test_boundary_derivatives_are_exact(catalog):
    """f(j)(0) equals the requested kernel coefficients, higher orders zero."""
    for prob in catalog.values():
        datum = make_datum(prob, prob.datum_kernel, seed=0)
        n = prob.order
        u = datum.boundary_derivatives(n + 2)
        np.testing.assert_allclose(u[:n], np.asarray(prob.datum_kernel, float),
                                   atol=0)
        np.testing.assert_allclose(u[n:], 0.0, atol=0)
        for k in range(n + 2):
            assert datum.derivative(k, 0.0) == pytest.approx(u[k], abs=1e-14)


def test_support_and_negative_axis(catalog):
    """The datum vanishes identically for x >= support and x < 0."""
    datum = make_datum(catalog["heat-neumann"], (1.0,), support=1.0, seed=1)
    xs = np.array([-1.0, -1e-9, 1.0, 1.0 + 1e-9, 2.0, 10.0])
    np.testing.assert_allclose(datum.value(xs), 0.0, atol=0)
    assert datum.value(0.5) != 0.0


def test_make_datum_rejects_incompatible_coefficients(catalog):
    """Coefficients outside the boundary-form kernel are refused."""
    with pytest.raises(CoeffsNotInKernel):
        make_datum(catalog["heat-dirichlet"], (1.0, 0.0))  # f(0) != 0
    with pytest.raises(CoeffsNotInKernel):
        make_datum(catalog["robin-4"], (1.0, 1.0, 1.0, 1.0))
    with pytest.raises(CoeffsNotInKernel):
        make_datum(catalog["heat-dirichlet"], (0.0, 1.0, 0.5))  # too many


def test_make_datum_refuses_complex_coefficients():
    """A datum is real: coefficients with a nonzero imaginary part, as the
    maximal kernel of B = [[1, 0.5 + 0.5i]] has, raise the named error;
    a complex dtype whose imaginary parts are 0 gives the real datum."""
    problem = HalfLineProblem(2, 1.0, [[1, 0.5 + 0.5j]], allow_complex=True)
    with pytest.raises(ComplexCoefficientsDisallowed, match="must be real"):
        make_datum(problem, problem.datum_kernel)
    heat = HalfLineProblem(2, 1.0, [[1.0, 0.0]])
    datum = make_datum(heat, np.array([0.0, 1.0], dtype=complex))
    assert datum == make_datum(heat, (0.0, 1.0))


def test_bump_datum_has_flat_boundary(catalog):
    """Pure bump data vanish to all recorded orders at the origin but are
    not identically zero."""
    for prob in catalog.values():
        datum = make_datum(prob, (), seed=2)
        np.testing.assert_allclose(datum.boundary_derivatives(prob.order + 2),
                                   0.0, atol=0)
        xs = np.linspace(0.0, 1.0, 201)
        assert np.abs(datum.value(xs)).max() > 0.05


def test_amplitude_scales_linearly(catalog):
    """Amplitude multiplies values, derivatives and boundary jets."""
    prob = catalog["robin-4"]
    base = make_datum(prob, prob.datum_kernel, seed=0)
    small = make_datum(prob, prob.datum_kernel, seed=0, amplitude=1e-3)
    xs = np.linspace(0.0, 1.0, 37)
    np.testing.assert_allclose(small.value(xs), 1e-3 * base.value(xs),
                               rtol=0, atol=1e-18)
    np.testing.assert_allclose(small.derivative(3, xs), 1e-3 * base.derivative(3, xs),
                               rtol=1e-13, atol=1e-18)
    np.testing.assert_allclose(small.boundary_derivatives(4),
                               1e-3 * base.boundary_derivatives(4), atol=0)


def test_order_cap_and_derivative_function(catalog):
    """``lambda x: datum.derivative(k, x)``, the integrand of the tests'
    transform of f(k), gives a float at a scalar x, equal to the entry of
    the vector call."""
    prob = catalog["heat-dirichlet"]
    datum = make_datum(prob, prob.datum_kernel, seed=0)
    g = lambda x: datum.derivative(2, x)
    xs = np.array([0.2, 0.7])
    scalars = [g(x) for x in xs]
    assert all(type(v) is float for v in scalars)
    np.testing.assert_allclose(scalars, g(xs), atol=0)


def test_seedless_datum_has_no_bumps():
    """seed=None suppresses the bump component and zeroes the bandwidth."""
    datum = InitialDatum((0.0, 1.0), support=1.0, seed=None)
    assert datum.bandwidth == 0.0
    # pure polynomial region: f(x) = x on [0, support/2]
    np.testing.assert_allclose(datum.value(np.array([0.1, 0.4])), [0.1, 0.4],
                               atol=1e-15)


def test_bandwidth_tracks_sharpest_bump():
    """Bandwidth is 100 over the smallest bump halfwidth."""
    datum = InitialDatum((0.0, 1.0), support=1.0, seed=5)
    w_min = min(w for _, _, w in datum._bumps)
    assert datum.bandwidth == pytest.approx(100.0 / w_min)


def test_stack_reads_its_data_along_a_leading_axis(catalog):
    """A stack of data with one support has their values and boundary jets
    as rows, the support they share and their largest bandwidth."""
    prob = catalog["robin-4"]
    data = [make_datum(prob, prob.datum_kernel, seed=0),
            make_datum(prob, (), seed=3, amplitude=0.5)]
    stack = DataStack(data)
    xs = np.linspace(0.0, 1.0, 11)
    np.testing.assert_array_equal(stack.value(xs),
                                  [d.value(xs) for d in data])
    np.testing.assert_array_equal(stack.boundary_derivatives(5),
                                  [d.boundary_derivatives(5) for d in data])
    assert stack.support == 1.0
    assert stack.bandwidth == max(d.bandwidth for d in data)


def test_stack_refuses_data_of_different_supports(catalog):
    """One quadrature serves a stack, so its data must share a support."""
    prob = catalog["heat-neumann"]
    data = [make_datum(prob, (1.0,), seed=0),
            make_datum(prob, (1.0,), support=1.5, seed=0)]
    with pytest.raises(SupportMismatch, match="one support"):
        DataStack(data)
