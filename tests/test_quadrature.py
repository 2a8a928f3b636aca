"""Contour quadrature: exactness, path algebra, analytic primitives."""

import math

import mpmath
import numpy as np
import pytest

from halfline.errors import NonpositiveX, TailBoundUnavailable, ToleranceNotMet
from halfline.quadrature import (
    ExpDecay,
    IntegralResult,
    PathSegment,
    QuadratureParams,
    apply_phase,
    component_nodes,
    integrate_segment,
    ray_monomial_tail,
    segment_nodes,
    wynn_epsilon,
)

PARAMS = QuadratureParams()


def test_segment_geometry():
    """Rays and arcs parametrize the documented curves."""
    ray = PathSegment.ray(1.0, math.pi / 2, 0.0, 2.0)
    assert ray.point(0.5) == pytest.approx(1.0 + 0.5j)
    assert ray.dpoint(0.3) == pytest.approx(1j)
    assert ray.finite
    assert not PathSegment.ray(0.0, 0.0, 1.0, math.inf).finite

    arc = PathSegment.arc(2.0, 1.0, 0.0, math.pi)
    assert arc.point(math.pi / 2) == pytest.approx(2.0 + 1j)
    assert arc.dpoint(0.0) == pytest.approx(1j)
    assert arc.finite

    rev = ray.reversed()
    assert rev.orientation == -ray.orientation
    assert rev.point(0.5) == ray.point(0.5)


def test_polynomial_exactness():
    """int z^2 dz along a ray and an arc matches the antiderivative."""
    f = lambda z: z ** 2
    ray = PathSegment.ray(1.0, math.pi / 2, 0.0, 2.0)
    want = ((1.0 + 2j) ** 3 - 1.0) / 3.0
    got = integrate_segment(f, ray, PARAMS).require()
    assert abs(got - want) < 1e-12

    arc = PathSegment.arc(0.0, 2.0, 0.0, math.pi)
    got = integrate_segment(f, arc, PARAMS).require()
    assert abs(got - (-16.0 / 3.0)) < 1e-11


def test_additivity_and_reversal():
    """Splitting a segment adds; reversing negates."""
    f = lambda z: np.exp(2j * z) / (1.0 + z ** 2)
    whole = PathSegment.ray(0.0, 0.0, 0.0, 3.0)
    left = PathSegment.ray(0.0, 0.0, 0.0, 1.2)
    right = PathSegment.ray(0.0, 0.0, 1.2, 3.0)
    osc = lambda u: 2.0
    iw = integrate_segment(f, whole, PARAMS, osc=osc).require()
    il = integrate_segment(f, left, PARAMS, osc=osc).require()
    ir = integrate_segment(f, right, PARAMS, osc=osc).require()
    assert abs(iw - (il + ir)) < 1e-11
    irev = integrate_segment(f, whole.reversed(), PARAMS, osc=osc).require()
    assert abs(iw + irev) < 1e-12


def test_closed_rectangle_residue():
    """A rectangle around a simple pole of exp(2iz)/(z - p) picks up
    2 pi i exp(2ip)."""
    p = 0.5 + 0.5j
    f = lambda z: np.exp(2j * z) / (z - p)
    corners = [-3.0 - 1.0j, 3.0 - 1.0j, 3.0 + 2.0j, -3.0 + 2.0j, -3.0 - 1.0j]
    total = 0.0
    for z0, z1 in zip(corners[:-1], corners[1:]):
        d = z1 - z0
        seg = PathSegment.ray(z0, math.atan2(d.imag, d.real), 0.0, abs(d))
        total += integrate_segment(f, seg, PARAMS, osc=lambda u: 4.0).require()
    want = 2j * math.pi * np.exp(2j * p)
    assert abs(total - want) < 1e-9 * abs(want)


def test_segment_nodes_reproduce_oscillatory_integral():
    """Fixed nodes and weights integrate exp(i lam) over [0, 10] to 1e-10."""
    seg = PathSegment.ray(0.0, 0.0, 0.0, 10.0)
    lam, w = segment_nodes(seg, PARAMS, osc=lambda u: 1.0)
    got = np.sum(w * np.exp(1j * lam))
    want = (np.exp(10j) - 1.0) / 1j
    assert abs(got - want) < 1e-10


def test_infinite_ray_with_decay_model():
    """int_0^inf exp(-r) dr via an ExpDecay-truncated ray equals 1."""
    seg = PathSegment.ray(0.0, 0.0, 0.0, math.inf)
    lam, w = segment_nodes(seg, PARAMS, decay=ExpDecay.linear(1.0, 0.0))
    assert abs(np.sum(w * np.exp(-lam)) - 1.0) < 1e-10


def test_component_nodes_split_and_apply_phase():
    """component_nodes discretizes arcs, finite rays and off-axis infinite
    rays (truncated by the caller's envelope) in segment order, and hands
    back the infinite real-axis rays untouched; apply_phase is the direct
    sum over nodes for 1-D and 2-D weights."""
    axis = PathSegment.ray(0.0, 0.0, 2.0, math.inf)
    upper = PathSegment.ray(0.0, math.pi / 2, 2.0, math.inf)
    arc = PathSegment.arc(0.0, 2.0, 0.0, math.pi / 2)
    assert axis.on_real_axis and axis.reversed().on_real_axis
    assert not upper.on_real_axis and not arc.on_real_axis
    assert not PathSegment.ray(-1j, 0.0, 0.0, 1.0).on_real_axis

    osc = lambda seg: (lambda u: 3.0)
    decay = lambda seg: ExpDecay.linear(1.0, seg.r0)
    lam, w, axis_rays = component_nodes([arc, axis, upper], PARAMS, osc, decay)
    assert axis_rays == [axis]
    lam_arc, w_arc = segment_nodes(arc, PARAMS, osc=osc(arc))
    lam_up, w_up = segment_nodes(upper, PARAMS, osc=osc(upper),
                                 decay=decay(upper))
    np.testing.assert_array_equal(lam, np.concatenate([lam_arc, lam_up]))
    np.testing.assert_array_equal(w, np.concatenate([w_arc, w_up]))
    # the arc from 2 to 2i, then up the imaginary axis: the integral of
    # exp(i lam) from 2 to i infinity
    assert abs(np.sum(w * np.exp(1j * lam)) + np.exp(2j) / 1j) < 1e-10

    xs = np.array([0.5, 1.0, 2.0])
    wf = w * np.exp(-lam ** 2 / 50.0)
    loop = np.array([np.sum(wf * np.exp(1j * lam * x)) for x in xs])
    np.testing.assert_allclose(apply_phase(xs, lam, wf), loop, rtol=1e-12)
    cols = np.stack([wf, 2.0 * wf], axis=1)
    np.testing.assert_allclose(apply_phase(xs, lam, cols),
                               np.stack([loop, 2.0 * loop], axis=1), rtol=1e-12)
    assert component_nodes([axis], PARAMS, osc, decay)[0].size == 0


def test_infinite_ray_with_block_acceleration():
    """Without a decay model, oscillation blocks plus epsilon acceleration
    evaluate int_0^inf exp((i - 0.2) r) dr = 1 / (0.2 - i)."""
    seg = PathSegment.ray(0.0, 0.0, 0.0, math.inf)
    res = integrate_segment(lambda z: np.exp((1j - 0.2) * z), seg, PARAMS,
                            osc=lambda u: 1.0)
    want = 1.0 / (0.2 - 1j)
    assert res.converged
    assert abs(res.value - want) < 1e-8


def test_infinite_ray_nodes_need_decay():
    """segment_nodes on an unbounded ray without a decay model fails loudly."""
    seg = PathSegment.ray(0.0, 0.0, 1.0, math.inf)
    with pytest.raises(TailBoundUnavailable):
        segment_nodes(seg, PARAMS)


def test_exp_decay_radius_linear():
    """For a pure linear envelope the truncation radius is analytic."""
    dec = ExpDecay.linear(2.0, 1.0)
    target = math.log(1e-12)
    want = 1.0 - target / 2.0
    assert dec.radius(target) == pytest.approx(want, rel=1e-9)
    # already below target at r0
    assert ExpDecay.linear(1.0, 5.0, log_scale=-50.0).radius(-10.0) == 5.0


def test_exp_decay_radius_general_property():
    """radius(T) lands on the level set of the envelope model."""
    dec = ExpDecay([( -0.5, 1.0), (0.1, 3.0)], r0=0.0, log_scale=2.0)
    for target in (-5.0, -20.0, -40.0):
        r = dec.radius(target)
        assert dec.log_env(r) <= target
        assert dec.log_env(0.999 * r) >= target - 1e-6


def test_exp_decay_requires_positive_dominant_term():
    with pytest.raises(ValueError):
        ExpDecay([(1.0, 1.0), (-0.2, 2.0)], r0=0.0)


def test_wynn_epsilon_alternating_harmonic():
    """Twelve partial sums of the alternating harmonic series accelerate
    to log 2 far beyond their raw accuracy."""
    partial = np.cumsum([(-1.0) ** (k + 1) / k for k in range(1, 13)])
    val, est = wynn_epsilon(partial)
    assert abs(val - math.log(2.0)) < 1e-8
    assert abs(partial[-1] - math.log(2.0)) > 1e-2  # acceleration did the work
    assert est < 1e-6


def test_wynn_epsilon_short_sequences():
    v, e = wynn_epsilon([3.0 + 0.0j])
    assert v == 3.0 and e == 3.0
    v, e = wynn_epsilon([1.0, 1.5])
    assert v == 1.5 and e == pytest.approx(0.5)


def test_ray_monomial_tail_against_mpmath_quad():
    """The exponential-integral closed form matches direct quadrature along
    a decaying ray."""
    theta, r0, x, power = math.pi / 3, 2.0, 0.7, 3
    got = ray_monomial_tail(theta, r0, x, power)
    w = mpmath.e ** (1j * theta)
    f = lambda r: mpmath.e ** (1j * r * w * x) * (r * w) ** (-power) * w
    want = complex(mpmath.quad(f, [r0, 80.0]))
    assert abs(got - want) < 1e-12


def test_ray_monomial_tail_on_real_axis():
    """On the real axis the tail is the rotated vertical integral obtained
    by closing into the upper half plane."""
    r0, x, power = 3.0, 1.3, 2
    got = ray_monomial_tail(0.0, r0, x, power)
    f = lambda s: mpmath.e ** (1j * (r0 + 1j * s) * x) * (r0 + 1j * s) ** (-power) * 1j
    want = complex(mpmath.quad(f, [0.0, 40.0]))
    assert abs(got - want) < 1e-12


def test_ray_monomial_tail_guards():
    with pytest.raises(NonpositiveX):
        ray_monomial_tail(0.3, 1.0, 0.0, 2)
    with pytest.raises(ValueError):
        ray_monomial_tail(0.3, 1.0, 1.0, 0)
    with pytest.raises(ValueError):
        ray_monomial_tail(-0.5, 1.0, 1.0, 2)  # lower half plane


def test_integral_result_require():
    ok = IntegralResult(2.0 + 0.0j, 1e-12, 10, True)
    assert ok.require() == 2.0
    bad = IntegralResult(2.0 + 0.0j, 1.0, 10, False, "nope")
    with pytest.raises(ToleranceNotMet):
        bad.require()
