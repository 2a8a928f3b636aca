"""Decay sectors, contour assembly, and time deformation geometry."""

import cmath
import math

import numpy as np
import pytest

from halfline import contours
from halfline.contours import (build_contours, decay_sectors, deform_for_time,
                               turn_axis_rays)


def _growing(theta: float, n: int, a: complex) -> bool:
    """True where the evolution factor exp(-a lam^n t) grows."""
    return (a * cmath.exp(1j * n * theta)).real < 0.0


def test_decay_sectors_catalog(catalog):
    """Sector lists for the built-in problems match hand computation."""
    pi = math.pi
    want = {
        "lkdv-dirichlet": [(pi / 3, 2 * pi / 3)],
        "reverse-lkdv": [(0.0, pi / 3), (2 * pi / 3, pi)],
        "heat-dirichlet": [(pi / 4, 3 * pi / 4)],
        "heat-neumann": [(pi / 4, 3 * pi / 4)],
        "robin-4": [(pi / 6, 5 * pi / 12), (2 * pi / 3, 11 * pi / 12)],
    }
    for name, sectors in want.items():
        prob = catalog[name]
        got = decay_sectors(prob.order, prob.a)
        assert len(got) == len(sectors), name
        for (glo, ghi), (wlo, whi) in zip(got, sectors):
            assert glo == pytest.approx(wlo, abs=1e-12)
            assert ghi == pytest.approx(whi, abs=1e-12)


def test_sectors_are_growth_regions():
    """Interior angles grow the evolution factor, edges are neutral, and
    the sector count equals the boundary-condition count."""
    from halfline.problems import classify
    cases = [(2, 1.0), (2, 1j), (3, 1j), (3, -1j), (4, 1.0),
             (4, np.exp(-1j * np.pi / 6)), (5, 1j), (5, -1j), (6, 1j)]
    for n, a in cases:
        sectors = decay_sectors(n, complex(a))
        assert len(sectors) == classify(n, complex(a)).count, (n, a)
        for lo, hi in sectors:
            assert 0.0 <= lo < hi <= math.pi
            mid = 0.5 * (lo + hi)
            assert _growing(mid, n, complex(a)), (n, a, mid)
            for edge in (lo, hi):
                if 0.0 < edge < math.pi:
                    val = (complex(a) * cmath.exp(1j * n * edge)).real
                    assert abs(val) < 1e-9


def _segments(cs):
    """Every segment of a contour system, the real-line component first."""
    return [*cs.gamma0, *(seg for segs in cs.gammas for seg in segs)]


def test_build_contours_structure(catalog):
    """Real-line component with indentation above the origin plus one
    negatively oriented boundary component per sector."""
    prob = catalog["robin-4"]
    R = 3.0
    cs = build_contours(prob, R)
    assert cs.R == R
    assert cs.delta == pytest.approx(min(0.1, R / 10.0))
    assert cs.count == prob.count == len(cs.gammas)

    left, semi, right = cs.gamma0
    assert left.kind == "ray" and left.angle == math.pi and left.orientation == -1
    assert left.base == -cs.delta and not left.finite
    assert semi.kind == "arc" and semi.radius == cs.delta
    # indentation passes above the origin
    assert semi.point(math.pi / 2) == pytest.approx(1j * cs.delta)
    assert (semi.a0, semi.a1) == (math.pi, 0.0)
    assert right.base == cs.delta and right.angle == 0.0 and right.orientation == 1

    for (lo, hi), segs in zip(cs.sectors, cs.gammas):
        inward, arc, outward = segs
        assert inward.kind == "ray" and inward.angle == lo
        assert inward.r0 == R and not inward.finite and inward.orientation == -1
        assert arc.kind == "arc" and arc.radius == R
        assert (arc.a0, arc.a1) == (lo, hi) and arc.orientation == 1
        assert outward.angle == hi and outward.orientation == 1

    assert len(cs.gamma0) == 3 and all(len(segs) == 3 for segs in cs.gammas)


def test_deform_moves_every_ray_into_decay(catalog, monkeypatch):
    """After deformation every ray direction makes exp(-a lam^n t) decay,
    at both tested turn fractions."""
    for prob in catalog.values():
        cs = build_contours(prob, 2.0)
        for frac in (0.5, 0.25):
            monkeypatch.setattr(contours, "_TURN", frac)
            d = deform_for_time(cs)
            for seg in _segments(d):
                if seg.kind != "ray":
                    continue
                rate = (prob.a * cmath.exp(1j * prob.order * seg.angle)).real
                assert rate > 1e-12, (prob.label, frac, seg.angle)


def test_deform_pivots_and_arcs(catalog):
    """Rays rotate about their finite endpoints; arcs are untouched."""
    prob = catalog["lkdv-dirichlet"]
    cs = build_contours(prob, 1.5)
    d = deform_for_time(cs)

    assert d.gamma0[1] == cs.gamma0[1]
    assert d.gamma0[0].point(0.0) == pytest.approx(-cs.delta)
    assert d.gamma0[2].point(0.0) == pytest.approx(cs.delta)
    assert d.gamma0[0].orientation == -1 and d.gamma0[2].orientation == 1

    for orig, new in zip(cs.gammas, d.gammas):
        assert new[1] == orig[1]
        for idx in (0, 2):
            pivot = orig[idx].point(orig[idx].r0)
            assert new[idx].point(0.0) == pytest.approx(pivot)
            assert new[idx].orientation == orig[idx].orientation
            assert not new[idx].finite


def test_deform_keeps_rotations_within_one_sign_edge(catalog):
    """Rotated directions leave the real axis and stay within a fraction of
    one sign-edge step (pi/n) of the original angle."""
    prob = catalog["reverse-lkdv"]
    cs = build_contours(prob, 1.2)
    d = deform_for_time(cs)
    for old, new in zip((s for s in _segments(cs) if s.kind == "ray"),
                        (s for s in _segments(d) if s.kind == "ray")):
        assert abs(math.sin(new.angle)) > 1e-9  # off the real axis
        assert abs(new.angle - old.angle) <= 0.5 * math.pi / prob.order + 1e-9


def _axis_rays(cs):
    return [seg for segs in cs.gammas for seg in segs
            if not seg.finite and seg.on_real_axis]


def test_turn_axis_rays_pivots_into_own_sector(catalog):
    """At t = 0 each real-axis sector ray pivots about its junction +-R to
    an angle strictly inside its own sector, by half the sector's width;
    arcs, off-axis rays and the real-line component are unchanged."""
    cs = build_contours(catalog["reverse-lkdv"], 1.2)
    assert len(_axis_rays(cs)) == 2
    t = turn_axis_rays(cs)
    assert t.gamma0 == cs.gamma0 and t.sectors == cs.sectors
    turned = 0
    for (lo, hi), old, new in zip(cs.sectors, cs.gammas, t.gammas):
        for a, b in zip(old, new):
            if a.finite or not a.on_real_axis:
                assert b == a
                continue
            turned += 1
            assert b.point(0.0) == pytest.approx(math.copysign(cs.R, math.cos(a.angle)))
            assert b.r0 == 0.0 and not b.finite
            assert b.orientation == a.orientation
            assert lo < b.angle < hi
            assert b.angle == pytest.approx(0.5 * (lo + hi))
    assert turned == 2 and not _axis_rays(t)


def test_turn_axis_rays_leaves_systems_without_axis_rays(catalog):
    """Problems whose sector rays all leave the real axis keep the system of
    build_contours."""
    for name in ("lkdv-dirichlet", "heat-dirichlet", "heat-neumann",
                 "robin-4"):
        cs = build_contours(catalog[name], 2.0)
        assert not _axis_rays(cs)
        assert turn_axis_rays(cs) == cs, name
