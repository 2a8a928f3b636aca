"""Contour quadrature: exactness, path algebra, analytic primitives."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest

from halfline import quadrature
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

    rev = dataclasses.replace(ray, orientation=-1)
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
    irev = integrate_segment(f, dataclasses.replace(whole, orientation=-1),
                             PARAMS, osc=osc).require()
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
    lam, w = segment_nodes(seg, PARAMS, decay=ExpDecay.linear(1.0, 0.0, 0.0))
    assert abs(np.sum(w * np.exp(-lam)) - 1.0) < 1e-10


def test_component_nodes_split_and_apply_phase():
    """component_nodes discretizes arcs, finite rays and off-axis infinite
    rays (truncated by the caller's envelope) in segment order, and refuses
    an infinite real-axis ray, whose exp(i lam x) does not decay;
    apply_phase is the direct sum over nodes for 1-D and 2-D weights."""
    axis = PathSegment.ray(0.0, 0.0, 2.0, math.inf)
    upper = PathSegment.ray(0.0, math.pi / 2, 2.0, math.inf)
    arc = PathSegment.arc(0.0, 2.0, 0.0, math.pi / 2)
    assert axis.on_real_axis
    assert dataclasses.replace(axis, orientation=-1).on_real_axis
    assert not upper.on_real_axis and not arc.on_real_axis
    assert not PathSegment.ray(-1j, 0.0, 0.0, 1.0).on_real_axis

    osc = lambda seg: (lambda u: 3.0)
    # |exp(i lam)| <= 1 on the upper half plane
    decay = lambda seg: ExpDecay.linear(1.0, seg.r0, 0.0)
    for segs in ([axis], [arc, axis, upper]):
        with pytest.raises(TailBoundUnavailable):
            component_nodes(segs, PARAMS, osc, decay)
    nodes = component_nodes([arc, upper], PARAMS, osc, decay)
    lam, w = nodes
    lam_arc, w_arc = segment_nodes(arc, PARAMS, osc=osc(arc))
    lam_up, w_up = segment_nodes(upper, PARAMS, osc=osc(upper),
                                 decay=decay(upper))
    np.testing.assert_array_equal(lam, np.concatenate([lam_arc, lam_up]))
    np.testing.assert_array_equal(w, np.concatenate([w_arc, w_up]))
    assert nodes.center.size * quadrature._ORDER == lam.size
    # the arc from 2 to 2i, then up the imaginary axis: the integral of
    # exp(i lam) from 2 to i infinity
    assert abs(np.sum(w * np.exp(1j * lam)) + np.exp(2j) / 1j) < 1e-10

    xs = np.array([0.5, 1.0, 2.0])
    wf = w * np.exp(-lam ** 2 / 50.0)
    loop = np.array([np.sum(wf * np.exp(1j * lam * x)) for x in xs])
    np.testing.assert_allclose(apply_phase(xs, nodes, wf), loop, rtol=1e-12)
    cols = np.stack([wf, 2.0 * wf], axis=1)
    np.testing.assert_allclose(apply_phase(xs, nodes, cols),
                               np.stack([loop, 2.0 * loop], axis=1), rtol=1e-12)


def test_ray_cut_at_its_start_has_no_nodes():
    """A ray whose envelope starts below the tail target (a zero datum's)
    is cut at its start: no nodes, and its apply is zero, alone or in a
    component."""
    seg = PathSegment.ray(1.0, math.pi / 3, 0.0, math.inf)
    below = ExpDecay.linear(1.0, 0.0, log_scale=math.log(1e-30))
    lam, w = nodes = segment_nodes(seg, PARAMS, decay=below)
    assert lam.size == w.size == nodes.center.size == 0
    xs = np.array([0.5, 1.0])
    np.testing.assert_array_equal(apply_phase(xs, nodes, w), 0.0)
    arc = PathSegment.arc(0.0, 1.0, 0.0, math.pi / 3)
    both = component_nodes([arc, seg], PARAMS, lambda s: (lambda u: 1.0),
                           lambda s: below)
    np.testing.assert_array_equal(both[0], segment_nodes(arc, PARAMS)[0])


def _unladdered_panels(lo, hi, rate):
    """The panel rule without the width ladder: each width from the rate at
    its start, shrunk to the rate at its far end when that is larger."""
    order, density = quadrature._ORDER, quadrature._DENSITY
    floor = 2.0 * math.pi * order / (density * (hi - lo))
    panels, u = [], lo
    while u < hi - 1e-14 * max(1.0, abs(hi)):
        r = max(rate(u), floor)
        step = 2.0 * math.pi * order / (density * r)
        r_end = max(rate(min(hi, u + step)), floor)
        if r_end > r:
            step = 2.0 * math.pi * order / (density * r_end)
        panels.append((u, min(hi, u + step)))
        u = min(hi, u + step)
    return panels


# phase-rate bounds of the shapes the library builds: constant (the central
# line, tail-scan blocks, arcs), growing like n t lam^(n-1) (evolution
# rays), falling from a pole just inside the junction (sector rays), and
# both at once
_RATES = {
    "constant": lambda u: 3.0,
    "growing": lambda u: 2.5 + 3 * 0.3 * (1.0 + u) ** 2,
    "pole": lambda u: 2.5 + 8.0 / (0.05 + u),
    "pole-growing": lambda u: 2.5 + 8.0 / (0.05 + u) + 4 * 0.02 * (1.0 + u) ** 3,
}


@pytest.mark.parametrize("name", sorted(_RATES))
def test_panels_resolve_the_rate_at_both_ends(name):
    """Every panel holds at least ``density`` nodes per wavelength of the
    rate at both of its ends.  Where the rate grows, widths lie on the
    absolute quarter-octave ladder 2 pi order / (density 2^(j/4)), integer
    j (the cut last panel aside), in runs of equal panels; a constant or
    falling rate gives the unladdered panels bit for bit."""
    rate = _RATES[name]
    lo, hi = 0.0, 40.0
    panels, widths = quadrature._build_panels(lo, hi, rate)
    cap = 2.0 * math.pi * quadrature._ORDER / quadrature._DENSITY
    for a, b in panels:
        assert (b - a) * max(rate(a), rate(b)) <= cap * (1.0 + 1e-12), (a, b)
    assert panels[0][0] == lo and panels[-1][1] == hi
    assert all(p[1] == q[0] for p, q in zip(panels, panels[1:]))
    if name in ("constant", "pole"):
        assert panels == _unladdered_panels(lo, hi, rate)
    grows = [width for (a, b), width in zip(panels[:-1], widths[:-1])
             if rate(b) > rate(a)]
    for width in grows:
        j = 4.0 * math.log2(cap / width)
        assert abs(j - round(j)) < 1e-9
    if name in ("growing", "pole-growing"):
        # far fewer widths than growing panels: runs of equal panels
        assert len(set(grows)) < len(grows) / 4


@pytest.mark.parametrize("lo, hi, rate", [
    (0.5, 5.17, lambda u: 2.0 + 0.9 * (1.0 + u) ** 2),
    (0.0, 40.0, _RATES["growing"]),
])
def test_growing_rate_panels_are_as_wide_as_their_far_end_allows(lo, hi,
                                                                  rate):
    """On a growing rate the widths do not increase, and each panel (the
    cut last one aside) is within one ladder step of the widest width w
    whose far end admits it, w rate(a + w) <= 2 pi order / density; the
    rate several-fold larger at the end of the segment does not size the
    first panels."""
    cap = 2.0 * math.pi * quadrature._ORDER / quadrature._DENSITY
    panels, widths = quadrature._build_panels(lo, hi, rate)
    assert len(panels) >= 4
    assert all(a >= b for a, b in zip(widths, widths[1:]))
    for (a, _), width in zip(panels[:-1], widths[:-1]):
        fits, wide = 0.0, cap / rate(a)
        for _ in range(60):
            mid = 0.5 * (fits + wide)
            if mid * rate(min(hi, a + mid)) <= cap:
                fits = mid
            else:
                wide = mid
        assert fits / 2.0 ** 0.25 < width <= fits * (1.0 + 1e-12), (a, width)


def test_ladder_rate_rounds_up_to_the_least_rung():
    """ladder_rate returns the least rung 2^(j/4) at or above the rate: a
    rung maps to itself (4 log2 of 2^(1/2) reads just above 2), and 1.1
    times a rung to the next one, as ``_build_panels`` steps."""
    for j in range(-40, 80):
        rung = 2.0 ** (j / 4)
        assert quadrature.ladder_rate(rung) == rung, j
        assert quadrature.ladder_rate(1.1 * rung) == 2.0 ** ((j + 1) / 4), j


def test_factored_apply_equals_dense_product():
    """apply_phase equals exp(i xs (x) lam) @ wf on an arc, a finite ray
    and a truncated ray with several width groups and a partial last panel,
    for 1-D and (nodes, times) weights, to the rounding of the phases."""
    arc = PathSegment.arc(0.5, 1.5, math.pi, 0.3)
    finite = PathSegment.ray(-1.0 + 0.2j, 0.4, 0.0, 3.3)
    tail = PathSegment.ray(1.5j, 2.2, 0.5, math.inf, orientation=-1)
    growing = lambda u: 2.0 + 0.9 * (1.0 + u) ** 2
    osc = lambda seg: (lambda u: 4.0) if seg.finite else growing
    decay = lambda seg: ExpDecay([(0.05, 3.0)], seg.r0, 0.0)
    nodes = component_nodes([arc, finite, tail], PARAMS, osc, decay)
    lam, w = nodes
    ray = segment_nodes(tail, PARAMS, osc=growing, decay=decay(tail))
    assert ray.offset.shape[0] >= 4
    assert np.bincount(ray.group).max() >= 2
    # the truncation radius cuts the last panel short: a group of its own
    assert np.sum(ray.group == ray.group[-1]) == 1
    points = nodes.center[:, None] + nodes.offset[nodes.group]
    np.testing.assert_allclose(points.ravel(), lam, rtol=0, atol=1e-13)

    xs = np.linspace(0.05, 1.5, 7)
    ts = np.array([0.0, 0.01, 0.04])
    wf = w * np.exp(-0.1 * lam ** 2)
    cols = wf[:, None] * np.exp(-np.multiply.outer(lam ** 3, ts))
    for weights in (wf, cols):
        terms = np.exp(1j * np.multiply.outer(xs, lam))
        dense = terms @ weights
        scale = np.abs(terms) @ np.abs(weights)
        got = apply_phase(xs, nodes, weights)
        assert got.shape == dense.shape
        assert (np.abs(got - dense) <= 1e-13 * scale).all()


@pytest.mark.parametrize("panels", [1, 2, 3, 5, 1000])
def test_apply_phase_chunks_equal_dense_product(monkeypatch, panels):
    """apply_phase sums its panels in chunks of whole panels under
    ``_PHASE_BUDGET`` phase entries, across width groups: with the cap
    patched down to chunks of 1, 2, 3 and 5 panels, and up to one chunk,
    it equals exp(i xs (x) lam) @ wf for 1-D and 2-D weights to the
    rounding of the phases, on nodes that mix arc panels (a group each),
    laddered ray groups of several panels and single-panel groups, and
    chunks then start inside groups and straddle their edges."""
    arc = PathSegment.arc(0.5, 1.5, math.pi, 0.3)
    tail = PathSegment.ray(1.5j, 2.2, 0.5, math.inf, orientation=-1)
    finite = PathSegment.ray(-1.0 + 0.2j, 0.4, 0.0, 1.3)
    growing = lambda u: 2.0 + 0.9 * (1.0 + u) ** 2
    osc = lambda seg: (lambda u: 4.0) if seg.kind == "arc" else growing
    decay = lambda seg: ExpDecay([(0.05, 3.0)], seg.r0, 0.0)
    nodes = component_nodes([arc, tail, finite], PARAMS, osc, decay)
    lam, w = nodes
    sizes = np.diff([first for first, _ in nodes.runs()] + [nodes.center.size])
    assert sizes.min() == 1 and sizes.max() >= 3

    xs = np.linspace(0.05, 1.5, 7)
    monkeypatch.setattr(quadrature, "_PHASE_BUDGET",
                        panels * xs.size * quadrature._ORDER)
    wf = w * np.exp(-0.1 * lam ** 2)
    cols = wf[:, None] * np.exp(-np.multiply.outer(lam ** 3, [0.0, 0.02]))
    terms = np.exp(1j * np.multiply.outer(xs, lam))
    for weights in (wf, cols):
        dense = terms @ weights
        scale = np.abs(terms) @ np.abs(weights)
        got = apply_phase(xs, nodes, weights)
        assert got.shape == dense.shape
        assert (np.abs(got - dense) <= 1e-13 * scale).all(), panels


def test_integrate_segment_refuses_infinite_ray():
    """integrate_segment has no tail model: an infinite ray raises, as
    segment_nodes does without a decay model."""
    seg = PathSegment.ray(0.0, 0.0, 0.0, math.inf)
    with pytest.raises(TailBoundUnavailable):
        integrate_segment(lambda z: np.exp((1j - 0.2) * z), seg, PARAMS,
                          osc=lambda u: 1.0)


def test_infinite_ray_nodes_need_decay():
    """segment_nodes on an unbounded ray without a decay model fails loudly."""
    seg = PathSegment.ray(0.0, 0.0, 1.0, math.inf)
    with pytest.raises(TailBoundUnavailable):
        segment_nodes(seg, PARAMS)


def test_exp_decay_radius_linear():
    """For a pure linear envelope the truncation radius is analytic."""
    dec = ExpDecay.linear(2.0, 1.0, 0.0)
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
        ExpDecay([(1.0, 1.0), (-0.2, 2.0)], r0=0.0, log_scale=0.0)


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
