"""Time evolution along deformed contours against independent references."""

import math

import numpy as np
import pytest

from halfline import contours, evolution, quadrature
from halfline.contours import deform_for_time
from halfline.datum import make_datum
from halfline.errors import NonpositiveX, ToleranceNotMet
from halfline.evolution import solve_grid
from halfline.oracles import heat_dirichlet_solution, heat_neumann_solution
from halfline.problems import HalfLineProblem
from halfline.quadrature import ExpDecay, PhaseKernel, component_nodes
from halfline.transforms import TransformPair

_CATALOG = ["lkdv-dirichlet", "reverse-lkdv", "heat-dirichlet",
            "heat-neumann", "robin-4"]
_REAL_CATALOG = [name for name in _CATALOG if name != "robin-4"]

# out-of-catalog problems, (problem, boundary Taylor coefficients of the
# datum): real coefficients (conj(a) = (-1)^n a, B real), then three that
# are not
_REAL = {
    "heat-robin": (HalfLineProblem(2, 1.0, [[2.0, 1.0]]), (1.0, -2.0)),
    "order5-minus-i": (HalfLineProblem(5, -1j, np.eye(5)[:2]),
                       (0.0, 0.0, 1.0, 1.0, 1.0)),
    "order5-plus-i": (HalfLineProblem(5, 1j, np.eye(5)[:3]),
                      (0.0, 0.0, 0.0, 1.0, 1.0)),
    "order4-e1-e3": (HalfLineProblem(4, 1.0, np.eye(4)[[0, 2]]),
                     (0.0, 1.0, 0.0, 1.0)),
}
_COMPLEX = {
    "schroedinger-dirichlet": (HalfLineProblem(2, 1j, [[1.0, 0.0]]),
                               (0.0, 1.0)),
    "rotated-heat": (HalfLineProblem(2, np.exp(0.3j), [[1.0, 0.0]]),
                     (0.0, 1.0)),
    "complex-b-heat": (HalfLineProblem(2, 1.0, [[1.0, 0.5j]],
                                       allow_complex=True), ()),
}
_generated: dict = {}


@pytest.fixture
def get_problem(get_pair, get_datum):
    """(pair, datum) of a catalog problem or of one of the problems above."""
    def _get(name):
        if name in _CATALOG:
            return get_pair(name), get_datum(name)
        if name not in _generated:
            problem, coeffs = {**_REAL, **_COMPLEX}[name]
            _generated[name] = (TransformPair(problem),
                                make_datum(problem, coeffs, seed=0))
        return _generated[name]

    return _get


def test_heat_dirichlet_matches_sine_oracle(get_pair, get_datum):
    """Contour evolution equals the method-of-images solution with an
    absorbing wall."""
    pair = get_pair("heat-dirichlet")
    datum = get_datum("heat-dirichlet")
    for x, t in ((0.5, 0.1), (1.0, 0.5)):
        got = solve_grid(pair, datum, [x], [t]).values[0, 0]
        ref = heat_dirichlet_solution(datum, x, t)
        assert ref.est_error < 1e-8
        assert abs(got - ref.value) < 1e-6, (x, t)


def test_heat_neumann_matches_cosine_oracle(get_pair, get_datum):
    """Contour evolution equals the method-of-images solution with a
    reflecting wall."""
    pair = get_pair("heat-neumann")
    datum = get_datum("heat-neumann")
    for x, t in ((0.5, 0.1), (1.2, 0.3)):
        got = solve_grid(pair, datum, [x], [t]).values[0, 0]
        ref = heat_neumann_solution(datum, x, t)
        assert ref.est_error < 1e-8
        assert abs(got - ref.value) < 1e-6, (x, t)


def test_time_zero_row_is_reconstruction(get_pair, get_datum):
    """t = 0 rows are the transform round trip, bit for bit (verify_problem
    reads its evolution-initial value from the reconstruction), and match
    the datum."""
    pair = get_pair("lkdv-dirichlet")
    datum = get_datum("lkdv-dirichlet")
    xs = np.array([0.3, 0.7])
    field = solve_grid(pair, datum, xs, [0.0, 0.05])
    np.testing.assert_array_equal(field.values[0], pair.reconstruct(datum, xs))
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
    """The contour rotation depth, the turn fraction of
    :mod:`halfline.contours`, cannot change the solution value."""
    pair = get_pair("lkdv-dirichlet")
    datum = get_datum("lkdv-dirichlet")
    vals = []
    for f in (0.5, 0.25):
        monkeypatch.setattr(contours, "_TURN", f)
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
# times, where robin-4's exp(55.4 t) mode has not yet grown; order 5,
# outside the workload, does too
_T_MAX = {2: 0.3, 3: 0.3, 4: 0.02, 5: 0.02}


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


def _every_segment_packs(pair, datum, xs, ts):
    """The :func:`evolution._segment_pack` of every deformed segment, none
    of them mirrored: the apply without the real-coefficient fold."""
    dcs = deform_for_time(pair.contours)
    return [(*evolution._segment_pack(pair, datum, seg, k, ts.min(),
                                      ts.max(), xs.min(), xs.max()), False)
            for k, segs in enumerate([dcs.gamma0, *dcs.gammas])
            for seg in segs]


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
    dcs = deform_for_time(pair.contours)
    t_min, t_max = ts.min(), ts.max()
    packs = []
    for k, segs in enumerate([dcs.gamma0, *dcs.gammas]):
        for seg in segs:
            env, rate = None, _rate(pair, datum, xs, seg, k, t_max)
            if not seg.finite:
                scale = pair.junction_scale(
                    lambda lam: pair.forward(datum, k, lam), seg)
                env = evolution._ray_decay(pair, seg, k, t_min, xs.min(),
                                           xs.max(), datum.support, scale)
            nodes = component_nodes(
                [seg], pair.params, lambda _seg: rate, lambda _seg: env)
            lam, w = nodes
            tau = (np.full(lam.size, np.inf) if env is None else
                   evolution._last_times(env, np.abs(lam - seg.base), t_min,
                                         pair.params.tail_log_target))
            packs.append((lam, w * pair.forward(datum, k, lam), tau, nodes,
                          False))
    return packs


@pytest.mark.parametrize("name", _CATALOG)
def test_grid_matches_dense_apply(get_pair, get_datum, name):
    """Dropping each time's nodes past its own truncation radius changes no
    value beyond the tail target: solve_grid equals the dense product of
    the packs of every segment."""
    pair = get_pair(name)
    datum = get_datum(name)
    xs, ts = _evolve_grid(pair.n)
    field = solve_grid(pair, datum, xs, ts)
    packs = evolution._packs(pair, datum, xs, ts)
    assert field.nodes == sum(pack[0].size for pack in packs)
    ref = _dense_apply(pair, xs, ts, _every_segment_packs(pair, datum, xs, ts))
    err = np.abs(field.values - ref)
    assert (err <= 1e-11 + 1e-12 * np.abs(ref)).all(), err.max()


@pytest.mark.parametrize("t_lo", [0.1, 0.01])
@pytest.mark.parametrize("name", _CATALOG)
def test_rays_resolved_per_time_match_t_max_layout(get_pair, get_datum,
                                                   name, t_lo):
    """Rays resolved for the largest time that still needs their nodes give
    the values of rays resolved for t_max all the way out, with at most
    half the nodes.  The counts compare every segment's per-time pack with
    the t_max layout, so the real-coefficient fold does not enter them.

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
    per_time = _every_segment_packs(pair, datum, xs, ts)
    per_time_nodes = sum(pack[0].size for pack in per_time)
    assert per_time_nodes <= 0.5 * nodes, (per_time_nodes, nodes)
    assert evolution._apply(pair, xs, ts, per_time)[1] < applied
    moduli = np.zeros(ref.shape)
    for lam, wf, *_ in per_time:
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
    order = quadrature._ORDER
    edge = np.polynomial.legendre.leggauss(order)[0][-1]
    dcs = deform_for_time(pair.contours)
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
            assert (width * rate <= 2 * np.pi * order / quadrature._DENSITY
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
    order = quadrature._ORDER
    cap = 2 * np.pi * order / quadrature._DENSITY
    edge = np.polynomial.legendre.leggauss(order)[0][-1]
    dcs = deform_for_time(pair.contours)
    widths = []
    for k, segs in enumerate([dcs.gamma0, *dcs.gammas]):
        for seg in segs:
            if seg.finite:
                continue
            nodes = evolution._segment_pack(
                pair, datum, seg, k, ts.min(), ts.max(), xs.min(),
                xs.max())[3]
            groups = np.unique(nodes.group[:-1])
            widths += (2 * np.abs(nodes.offset[groups, -1]) / edge).tolist()
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
    nodes and pairs of every segment are fewer than with rays resolved for
    t_max all the way out; the factored phases take far fewer exponentials
    than one per node and x."""
    pair = get_pair("heat-dirichlet")
    datum = get_datum("heat-dirichlet")
    xs, ts = _evolve_grid(pair.n)
    field = solve_grid(pair, datum, xs, ts)
    assert field.nodes > 0
    assert field.applied < field.nodes * len(ts)
    packs = _t_max_packs(pair, datum, xs, ts)
    per_time = _every_segment_packs(pair, datum, xs, ts)
    assert (sum(pack[0].size for pack in per_time)
            < sum(pack[0].size for pack in packs))
    assert (evolution._apply(pair, xs, ts, per_time)[1]
            < evolution._apply(pair, xs, ts, packs)[1])
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


@pytest.mark.parametrize("name", _REAL_CATALOG + list(_REAL))
def test_mirrored_problem_folds_its_rays(get_problem, name):
    """A problem with real coefficients builds only the arcs and outgoing
    rays, which count as 2 Re for their mirror rays: the values of the
    apply over every segment within 1e-13 of the largest, with at most
    0.55x its nodes."""
    pair, datum = get_problem(name)
    assert pair.mirrored
    xs, ts = _evolve_grid(pair.n)
    field = solve_grid(pair, datum, xs, ts)
    packs = _every_segment_packs(pair, datum, xs, ts)
    ref, _, _ = evolution._apply(pair, xs, ts, packs)
    nodes = sum(pack[0].size for pack in packs)
    assert field.nodes <= 0.55 * nodes, (field.nodes, nodes)
    err = np.abs(field.values - ref).max()
    assert err <= 1e-13 * np.abs(ref).max(), err


@pytest.mark.parametrize("name", ["robin-4", *_COMPLEX])
def test_unmirrored_problem_applies_every_segment(get_problem, name):
    """Complex coefficients (a with conj(a) != (-1)^n a, or a complex B)
    keep every segment: the values of the apply over every segment, bit
    for bit, with all its nodes."""
    pair, datum = get_problem(name)
    assert not pair.mirrored
    xs, ts = _evolve_grid(pair.n)
    field = solve_grid(pair, datum, xs, ts)
    packs = _every_segment_packs(pair, datum, xs, ts)
    ref, _, _ = evolution._apply(pair, xs, ts, packs)
    assert field.nodes == sum(pack[0].size for pack in packs)
    np.testing.assert_array_equal(field.values, ref)


@pytest.mark.parametrize("name", _REAL_CATALOG + list(_REAL))
def test_dropped_rays_mirror_kept_rays(get_problem, name):
    """Each incoming ray of ``deform_for_time`` that the fold drops is the
    reflection lam -> -conj(lam) of a kept outgoing ray, traversed the
    other way: gamma0's of gamma0's, sector k's of sector N+1-k's.  Its
    integrand is the conjugate of the kept ray's at the reflected points."""
    pair, datum = get_problem(name)
    dcs = deform_for_time(pair.contours)
    N = pair.N
    mirrors = [(0, dcs.gamma0[0], 0, dcs.gamma0[2])]
    mirrors += [(k, dcs.gammas[k - 1][0], N + 1 - k, dcs.gammas[N - k][2])
                for k in range(1, N + 1)]
    for k, dropped, j, kept in mirrors:
        assert not dropped.finite and not kept.finite
        assert abs(dropped.base + kept.base.conjugate()) <= (
            1e-14 * abs(kept.base)), (k, dropped.base, kept.base)
        assert abs(dropped.angle - (math.pi - kept.angle)) <= 1e-14, k
        assert (dropped.r0, dropped.orientation) == (kept.r0,
                                                     -kept.orientation)
        lam = kept.point(kept.r0 + np.array([0.5, 2.0, 5.0]))
        here = pair.forward(datum, j, lam)
        there = pair.forward(datum, k, -lam.conj())
        np.testing.assert_allclose(there, here.conj(), rtol=1e-11,
                                   atol=1e-13 * np.abs(here).max())


def test_mirrored_pack_with_nonfinite_imaginary_sums_raises(
        get_pair, get_datum, monkeypatch):
    """A mirrored pack whose imaginary sums alone overflow still raises:
    the fold tests the complex sums before taking 2 Re."""
    pair = get_pair("lkdv-dirichlet")
    datum = get_datum("lkdv-dirichlet")
    mirrored = []
    packs = evolution._packs

    def marking_packs(*args):
        out = packs(*args)
        mirrored.extend(pack[3] for pack in out if pack[4])
        return out

    class Kernel(PhaseKernel):
        def apply(self, first, stop, wf):
            out = super().apply(first, stop, wf)
            if any(self.nodes is nodes for nodes in mirrored):
                out.imag[...] = np.inf
            return out

    monkeypatch.setattr(evolution, "_packs", marking_packs)
    monkeypatch.setattr(evolution, "PhaseKernel", Kernel)
    with pytest.raises(ToleranceNotMet, match="0.2"):
        solve_grid(pair, datum, [0.5], [0.2])
    assert mirrored
