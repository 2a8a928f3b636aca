"""Time evolution along deformed contours against independent references."""

import math

import numpy as np
import pytest

from halfline import evolution
from halfline.contours import deform_for_time
from halfline.errors import NonpositiveX, ToleranceNotMet
from halfline.evolution import solve_grid
from halfline.oracles import heat_dirichlet_solution, heat_neumann_solution
from halfline.quadrature import ExpDecay, component_nodes

_CATALOG = ["lkdv-dirichlet", "reverse-lkdv", "heat-dirichlet",
            "heat-neumann", "robin-4"]


def test_heat_dirichlet_matches_sine_oracle(get_pair, get_datum):
    """Contour evolution equals the classical sine-transform solution."""
    pair = get_pair("heat-dirichlet")
    datum = get_datum("heat-dirichlet")
    for x, t in ((0.5, 0.1), (1.0, 0.5)):
        got = solve_grid(pair, datum, [x], [t]).values[0, 0]
        ref = heat_dirichlet_solution(datum, x, t)
        assert ref.est_error < 1e-8
        assert abs(got - ref.value) < 1e-6, (x, t)


def test_heat_neumann_matches_cosine_oracle(get_pair, get_datum):
    """Contour evolution equals the classical cosine-transform solution."""
    pair = get_pair("heat-neumann")
    datum = get_datum("heat-neumann")
    for x, t in ((0.5, 0.1), (1.2, 0.3)):
        got = solve_grid(pair, datum, [x], [t]).values[0, 0]
        ref = heat_neumann_solution(datum, x, t)
        assert ref.est_error < 1e-8
        assert abs(got - ref.value) < 1e-6, (x, t)


def test_time_zero_row_is_reconstruction(get_pair, get_datum):
    """t = 0 rows come from the transform round trip and match the datum."""
    pair = get_pair("lkdv-dirichlet")
    datum = get_datum("lkdv-dirichlet")
    xs = np.array([0.3, 0.7])
    field = solve_grid(pair, datum, xs, [0.0, 0.05])
    np.testing.assert_allclose(field.values[0].real, datum.value(xs), atol=1e-6)
    np.testing.assert_allclose(field.values[0].imag, 0.0, atol=1e-6)
    # and the positive-time row moved away from it
    assert np.abs(field.values[1] - field.values[0]).max() > 1e-4


def test_grid_factorizes_over_times(get_pair, get_datum):
    """A multi-time grid equals stacked single-time solves (same packs)."""
    pair = get_pair("heat-neumann")
    datum = get_datum("heat-neumann")
    xs = np.array([0.4, 0.9])
    ts = np.array([0.05, 0.15])
    field = solve_grid(pair, datum, xs, ts)
    for i, t in enumerate(ts):
        single = solve_grid(pair, datum, xs, [t])
        np.testing.assert_allclose(field.values[i], single.values[0],
                                   rtol=1e-10, atol=1e-12)


def test_theta_fraction_invariance(get_pair, get_datum, monkeypatch):
    """The contour rotation depth cannot change the solution value."""
    pair = get_pair("lkdv-dirichlet")
    datum = get_datum("lkdv-dirichlet")
    vals = []
    for f in (0.5, 0.25):
        monkeypatch.setattr(evolution, "deform_for_time",
                            lambda cs, f=f: deform_for_time(cs, f))
        vals.append(solve_grid(pair, datum, [0.5], [0.2]).values[0, 0])
    assert abs(vals[0] - vals[1]) < 1e-8


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_times_raise(get_pair, get_datum):
    """At small heat times exp(i lam x) fhat(lam) overflows along the
    rotated rays before exp(-lam^2 t) cuts it off: the call raises, naming
    the times whose values are not finite, instead of returning NaN."""
    pair = get_pair("heat-dirichlet")
    datum = get_datum("heat-dirichlet")
    xs = [0.05, 0.2, 0.5]
    with pytest.raises(ToleranceNotMet, match="0.0003"):
        solve_grid(pair, datum, xs, [3e-4])
    with pytest.raises(ToleranceNotMet, match=r"0\.003\b.*0\.0001"):
        solve_grid(pair, datum, xs, [1e-2, 3e-3, 1e-3, 3e-4, 1e-4])
    # alone, the first of those times is resolved
    got = solve_grid(pair, datum, xs, [3e-3]).values[0]
    for x, value in zip(xs, got):
        ref = heat_dirichlet_solution(datum, x, 3e-3)
        assert abs(value - ref.value) < 1e-8, x


def test_deterministic_repeat(get_pair, get_datum):
    """Identical calls produce bit-identical values."""
    pair = get_pair("heat-dirichlet")
    datum = get_datum("heat-dirichlet")
    a = solve_grid(pair, datum, [0.8], [0.3]).values[0, 0]
    b = solve_grid(pair, datum, [0.8], [0.3]).values[0, 0]
    assert a == b


def test_argument_guards(get_pair, get_datum):
    pair = get_pair("heat-dirichlet")
    datum = get_datum("heat-dirichlet")
    with pytest.raises(NonpositiveX):
        solve_grid(pair, datum, [0.0, 0.5], [0.1])
    with pytest.raises(ValueError):
        solve_grid(pair, datum, [0.5], [-0.1])
    with pytest.raises(ValueError):
        solve_grid(pair, datum, [], [0.1])


def test_fourth_order_problem_hosts_growing_mode(get_pair, get_datum):
    """The fourth-order catalog problem carries a discrete mode growing like
    exp(Re(64 a) t) = exp(55.4 t): a kernel-weight pole at lam = 2 + 2i maps
    through lam^4 = -64 into growth.  The solver must reproduce that growth
    rather than damp it."""
    pair = get_pair("robin-4")
    datum = get_datum("robin-4")
    lo = abs(solve_grid(pair, datum, [0.4], [0.05]).values[0, 0])
    hi = abs(solve_grid(pair, datum, [0.4], [0.15]).values[0, 0])
    ratio = hi / lo
    # exp(55.43 * 0.1) = 256 up to the projection coefficients
    assert 10.0 < ratio < 6000.0


# the evolve benchmark workload's t_max per order: order 4 stays at early
# times, where robin-4's exp(55.4 t) mode has not yet grown
_T_MAX = {2: 0.3, 3: 0.3, 4: 0.02}


def _evolve_grid(order: int):
    """An evolve-shaped grid: 40 xs on (0, 1.5], 20 ts on [0.1, 1] t_max."""
    return (np.linspace(1.5 / 40, 1.5, 40),
            _T_MAX[order] * np.linspace(0.1, 1.0, 20))


def _dense_apply(pair, xs, ts, packs):
    """Every node at every time, in one product per pack."""
    values = np.zeros((ts.size, xs.size), dtype=complex)
    for lam, wf, *_ in packs:
        decay = np.exp(-pair.a * np.multiply.outer(lam ** pair.n, ts))
        values += (np.exp(1j * np.multiply.outer(xs, lam))
                   @ (wf[:, None] * decay)).T
    return values


def _rate(pair, datum, xs, seg, k, t):
    """The phase-rate bound of a deformed segment at time t: the x and
    support term, n t |lam|^(n-1) (per unit angle on an arc) and the
    junction poles."""
    pole = pair.junction_osc(seg, 0.0) if k else (lambda u: 0.0)
    x_rate = xs.max() + datum.support
    if seg.kind == "arc":
        r = seg.radius
        return lambda u: r * x_rate + pair.n * t * r ** pair.n + pole(u)
    base = abs(seg.base)
    return lambda u: (x_rate + pair.n * t * (base + u) ** (pair.n - 1)
                      + pole(u))


def _t_max_packs(pair, datum, xs, ts):
    """The packs with every ray resolved for the largest time all the way
    out (the layout before rays were resolved per time), as an oracle."""
    dcs = deform_for_time(pair.contours, theta_fraction=0.5)
    t_min, t_max = ts.min(), ts.max()
    packs = []
    for k, segs in enumerate([dcs.gamma0, *dcs.gammas]):
        for seg in segs:
            env, rate = None, _rate(pair, datum, xs, seg, k, t_max)
            if not seg.finite:
                jun = np.array([seg.point(seg.r0)])
                scale = max(float(np.abs(pair.forward(datum, k, jun)).max()),
                            1e-12)
                env = evolution._ray_decay(pair, seg, k, t_min, xs.min(),
                                           xs.max(), datum.support, scale)
            lam, w, panels, _ = component_nodes(
                [seg], pair.params, lambda _seg: rate, lambda _seg: env)
            tau = (np.full(lam.size, np.inf) if env is None else
                   evolution._last_times(env, np.abs(lam - seg.base), t_min,
                                         pair.params.tail_log_target))
            packs.append((lam, w * pair.forward(datum, k, lam), tau, panels))
    return packs


@pytest.mark.parametrize("name", _CATALOG)
def test_grid_matches_dense_apply(get_pair, get_datum, name):
    """Dropping each time's nodes past its own truncation radius changes no
    value beyond the tail target: solve_grid equals the dense product of
    the same packs."""
    pair = get_pair(name)
    datum = get_datum(name)
    xs, ts = _evolve_grid(pair.n)
    field = solve_grid(pair, datum, xs, ts)
    packs = evolution._packs(pair, datum, xs, ts)
    ref = _dense_apply(pair, xs, ts, packs)
    assert field.nodes == sum(pack[0].size for pack in packs)
    err = np.abs(field.values - ref)
    assert (err <= 1e-11 + 1e-12 * np.abs(ref)).all(), err.max()


@pytest.mark.parametrize("t_lo", [0.1, 0.01])
@pytest.mark.parametrize("name", _CATALOG)
def test_rays_resolved_per_time_match_t_max_layout(get_pair, get_datum,
                                                   name, t_lo):
    """Rays resolved for the largest time that still needs their nodes give
    the values of rays resolved for t_max all the way out, with at most
    half the nodes.

    The values agree within 1e-13 of the largest, or within 1e-14 of the
    sum of the terms' moduli where that is larger: at the heat problems'
    smallest time, exp(i lam x) fhat(lam) grows along the rays before
    exp(-lam^2 t) cuts it off, and the terms sum to 7e3 at x = 0.0375.
    There the values move by 7e-13 to 1.1e-11, in no order, as the density
    goes from 8 to 32: rounding, where a resolution error would fall
    geometrically.
    """
    pair = get_pair(name)
    datum = get_datum(name)
    xs, ts = _evolve_grid(pair.n)
    ts = ts.max() * np.linspace(t_lo, 1.0, ts.size)
    field = solve_grid(pair, datum, xs, ts)
    packs = _t_max_packs(pair, datum, xs, ts)
    ref, applied, _ = evolution._apply(pair, xs, ts, packs)
    nodes = sum(pack[0].size for pack in packs)
    assert field.nodes <= 0.5 * nodes, (field.nodes, nodes)
    assert field.applied < applied
    moduli = np.zeros(ref.shape)
    for lam, wf, *_ in evolution._packs(pair, datum, xs, ts):
        decay = np.exp(-np.multiply.outer((pair.a * lam ** pair.n).real, ts))
        moduli += (np.exp(-np.multiply.outer(xs, lam.imag))
                   @ (np.abs(wf)[:, None] * decay)).T
    err = np.abs(field.values - ref)
    assert (err <= np.maximum(1e-13 * np.abs(ref).max(),
                              1e-14 * moduli)).all(), err.max()


@pytest.mark.parametrize("name", _CATALOG)
def test_ray_panels_resolve_the_largest_time_needing_them(get_pair,
                                                          get_datum, name):
    """Every rotated-ray panel holds ``density`` nodes per wavelength at the
    rate of the largest time that still needs its first node."""
    pair = get_pair(name)
    datum = get_datum(name)
    xs, ts = _evolve_grid(pair.n)
    ts = ts.max() * np.linspace(0.01, 1.0, ts.size)
    params = pair.params
    order = params.max_order
    edge = np.polynomial.legendre.leggauss(order)[0][-1]
    dcs = deform_for_time(pair.contours, theta_fraction=0.5)
    rays = 0
    for k, segs in enumerate([dcs.gamma0, *dcs.gammas]):
        for seg in segs:
            if seg.finite:
                continue
            lam, _, tau, _ = evolution._segment_pack(
                pair, datum, seg, k, ts.min(), ts.max(), xs.min(), xs.max())
            first = lam[::order]
            width = np.abs(lam[order - 1::order] - first) / edge
            u = np.abs(first - seg.base)
            t = ts[np.maximum(np.searchsorted(ts, tau[::order]) - 1, 0)]
            rate = np.array([_rate(pair, datum, xs, seg, k, ti)(ui)
                             for ti, ui in zip(t, u)])
            assert (width * rate <= 2 * np.pi * order / params.density
                    * (1 + 1e-9)).all()
            rays += 1
    assert rays > 0


@pytest.mark.parametrize("name", _CATALOG)
def test_ray_panel_widths_lie_on_one_ladder(get_pair, get_datum, name):
    """Every rotated-ray panel of the evolve-grid packs (each ray's cut
    last panel aside) is as wide as one rate 2^(j/4), integer j, admits:
    falling rates rounded up and growing rates stepped down share the one
    absolute ladder of :mod:`halfline.quadrature`."""
    pair = get_pair(name)
    datum = get_datum(name)
    xs, ts = _evolve_grid(pair.n)
    order = pair.params.max_order
    cap = 2 * np.pi * order / pair.params.density
    edge = np.polynomial.legendre.leggauss(order)[0][-1]
    dcs = deform_for_time(pair.contours)
    widths = []
    for k, segs in enumerate([dcs.gamma0, *dcs.gammas]):
        for seg in segs:
            if seg.finite:
                continue
            panels = evolution._segment_pack(
                pair, datum, seg, k, ts.min(), ts.max(), xs.min(),
                xs.max())[3]
            groups = np.unique(panels.group[:-1])
            widths += (2 * np.abs(panels.offset[groups, -1]) / edge).tolist()
    assert len(widths) > 0
    j = 4.0 * np.log2(cap / np.array(widths))
    assert (np.abs(j - np.round(j)) < 1e-9).all(), j


def test_grid_is_independent_of_time_order(get_pair, get_datum):
    """Shuffled times with a repeat and a t = 0 entry give the rows of the
    sorted call."""
    pair = get_pair("heat-neumann")
    datum = get_datum("heat-neumann")
    xs, _ = _evolve_grid(pair.n)
    ts = np.array([0.2, 0.05, 0.0, 0.3, 0.05, 0.1])
    field = solve_grid(pair, datum, xs, ts)
    ordered = solve_grid(pair, datum, xs, np.sort(ts))
    assert field.applied == ordered.applied
    for i, t in enumerate(ts):
        want = ordered.values[np.searchsorted(ordered.ts, t)]
        assert np.abs(field.values[i] - want).max() <= (
            1e-13 * np.abs(want).max()), t


@pytest.mark.parametrize("name", ["lkdv-dirichlet", "robin-4"])
def test_grid_does_not_depend_on_threads(get_pair, get_datum, monkeypatch,
                                         name):
    """Packs applied on two workers and summed in pack order give the
    serial call's values to rounding, and the same work counts."""
    pair = get_pair(name)
    datum = get_datum(name)
    xs, ts = _evolve_grid(pair.n)
    monkeypatch.setenv("UTM_THREADS", "2")
    threaded = solve_grid(pair, datum, xs, ts)
    monkeypatch.setenv("UTM_THREADS", "1")
    serial = solve_grid(pair, datum, xs, ts)
    assert ((threaded.nodes, threaded.applied, threaded.exponentials)
            == (serial.nodes, serial.applied, serial.exponentials))
    err = np.abs(threaded.values - serial.values).max()
    assert err <= 1e-14 * np.abs(serial.values).max(), err


def test_each_time_applies_only_its_own_nodes(get_pair, get_datum):
    """Later times drop the ray nodes past their truncation radius, so fewer
    (node, time) pairs are applied than the dense nodes x times, and both
    nodes and pairs are fewer than with rays resolved for t_max all the
    way out; the factored phases take far fewer exponentials than one per
    node and x."""
    pair = get_pair("heat-dirichlet")
    datum = get_datum("heat-dirichlet")
    xs, ts = _evolve_grid(pair.n)
    field = solve_grid(pair, datum, xs, ts)
    assert field.nodes > 0
    assert field.applied < field.nodes * len(ts)
    packs = _t_max_packs(pair, datum, xs, ts)
    assert field.nodes < sum(pack[0].size for pack in packs)
    assert field.applied < evolution._apply(pair, xs, ts, packs)[1]
    # one decay factor per applied pair, the rest are phases
    phases = field.exponentials - field.applied
    assert 0 < phases < 0.25 * field.nodes * len(xs)
    assert solve_grid(pair, datum, xs, [0.0]).exponentials == 0


def test_node_last_times_match_decay_radius():
    """A node's last time is where the ExpDecay radius at that time passes
    the node: needed before, below the tail target after."""
    g, c1, r0, log_scale, log_target = 0.7, -2.0, 0.5, 1.0, math.log(1e-12)
    model = lambda t: ExpDecay([(0.5 * t * g, 3.0), (c1, 1.0)], r0, log_scale)
    t_env = 0.05
    r = np.linspace(r0 + 1e-3, model(t_env).radius(log_target), 400,
                    endpoint=False)
    tau = evolution._last_times(model(t_env), r, t_env, log_target)
    assert (tau > t_env).all()
    assert (np.diff(tau) <= 0.0).all()
    for t in (0.06, 0.1, 0.3, 1.0):
        radius = model(t).radius(log_target)
        assert (tau[r < radius * (1 - 1e-9)] > t).all(), t
        assert (tau[r > radius * (1 + 1e-9)] <= t).all(), t
