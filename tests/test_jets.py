"""Truncated Taylor-jet arithmetic: algebraic identities and mpmath checks."""

import mpmath
import numpy as np

from halfline import jets


def test_variable_and_constant_layout():
    """Identity jet carries the point in slot 0, one in slot 1, zeros above."""
    x = np.array([0.3, -1.7, 2.0])
    j = jets.variable(x, 4)
    assert j.shape == (5, 3)
    np.testing.assert_allclose(j[0], x)
    np.testing.assert_allclose(j[1], 1.0)
    np.testing.assert_allclose(j[2:], 0.0)

    c = jets.constant(2.5, 3, 4)
    assert c.shape == (4, 4)
    np.testing.assert_allclose(c[0], 2.5)
    np.testing.assert_allclose(c[1:], 0.0)


def test_mul_matches_polynomial_product():
    """Jet multiplication agrees with the coefficient product of polynomials."""
    rng = np.random.default_rng(7)
    x = rng.uniform(-2.0, 2.0, size=5)
    order = 6
    xj = jets.variable(x, order)
    for _ in range(20):
        p = rng.standard_normal(4)
        q = rng.standard_normal(3)
        prod = np.polynomial.polynomial.polymul(p, q)
        lhs = jets.mul(jets.polyval(p, xj), jets.polyval(q, xj))
        rhs = jets.polyval(prod, xj)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_reciprocal_inverts_mul():
    """mul(a, reciprocal(a)) is the constant-one jet where f is nonzero."""
    rng = np.random.default_rng(11)
    x = rng.uniform(0.1, 1.5, size=4)
    xj = jets.variable(x, 8)
    a = jets.polyval([2.0, 0.5, 1.0], xj)  # 2 + x/2 + x^2 > 0
    one = jets.mul(a, jets.reciprocal(a))
    np.testing.assert_allclose(one[0], 1.0, atol=1e-13)
    np.testing.assert_allclose(one[1:], 0.0, atol=1e-12)


def test_divide_matches_reciprocal():
    """divide(a, b) equals mul(a, reciprocal(b))."""
    x = np.array([0.2, 0.9])
    xj = jets.variable(x, 5)
    a = jets.polyval([1.0, -1.0, 0.25], xj)
    b = jets.polyval([3.0, 1.0], xj)
    np.testing.assert_allclose(jets.divide(a, b),
                               jets.mul(a, jets.reciprocal(b)), atol=1e-13)


def test_exp_functional_equation():
    """exp(a + b) = exp(a) exp(b) in the jet algebra."""
    rng = np.random.default_rng(23)
    x = rng.uniform(-1.0, 1.0, size=3)
    xj = jets.variable(x, 7)
    for _ in range(20):
        a = jets.polyval(rng.standard_normal(4) * 0.5, xj)
        b = jets.polyval(rng.standard_normal(3) * 0.5, xj)
        lhs = jets.exp(a + b)
        rhs = jets.mul(jets.exp(a), jets.exp(b))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-11, atol=1e-11)


def test_composite_jet_matches_mpmath_taylor():
    """Jet of exp(1/(1 + x^2)) reproduces mpmath Taylor coefficients."""
    pts = np.array([0.3, -0.7, 1.2])
    order = 8
    xj = jets.variable(pts, order)
    den = jets.polyval([1.0, 0.0, 1.0], xj)
    got = jets.exp(jets.reciprocal(den))

    f = lambda x: mpmath.e ** (1 / (1 + x * x))
    for i, p in enumerate(pts):
        with mpmath.workdps(30):
            ref = [float(c) for c in mpmath.taylor(f, p, order)]
        np.testing.assert_allclose(got[:, i], ref, rtol=1e-10, atol=1e-12)
