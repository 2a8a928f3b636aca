"""Time evolution along deformed contours against independent references."""

import math

import numpy as np
import pytest

from halfline import contours, evolution, oracles, quadrature, verify
from halfline.contours import deform_for_time
from halfline.datum import make_datum
from halfline.errors import NonpositiveX, ToleranceNotMet
from halfline.evolution import prepare, solve_grid
from halfline.oracles import heat_dirichlet_solution, heat_neumann_solution
from halfline.problems import HalfLineProblem
from halfline.quadrature import ExpDecay, component_nodes
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
    """t = 0 rows are the transform round trip, bit for bit, and match the
    datum.  verify_problem's reconstruction reads the stacked inversion
    of the data trio instead, whose first row agrees with this round trip
    to rounding (bounded in tests/test_verify.py)."""
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


def test_overflowing_times_raise(get_pair, get_datum):
    """At small heat times exp(i lam x) fhat(lam) overflows along the
    rotated rays before exp(-lam^2 t) cuts it off: the call raises, naming
    the times whose values are not finite, instead of returning NaN, and
    it raises so under any warning filter (the suite runs with overflow
    warnings as they are)."""
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
    # a NaN time fails like a negative one, instead of reading f(x) in its
    # row; an infinite x is refused before any pack is built
    with pytest.raises(ValueError, match="finite and nonnegative"):
        solve_grid(pair, datum, [0.5], [0.1, np.nan])
    with pytest.raises(NonpositiveX, match="finite x > 0"):
        solve_grid(pair, datum, [0.5, np.inf], [0.1])
    with pytest.raises(NonpositiveX, match="finite x > 0"):
        prepare(pair, datum, (0.5, np.nan), (0.05, 0.5))


def test_prepared_solver_refuses_points_outside_its_window(get_pair,
                                                          get_datum):
    """A solver prepared for x in [0.2, 1.0] and t in [0.05, 0.5] serves
    its edges and times 0, and raises for an x or a positive time outside
    the window: its rays were cut for t >= 0.05 and its drop times hold
    for x in [0.2, 1.0] alone.  Times 0 alone need no packs."""
    pair = get_pair("heat-dirichlet")
    datum = get_datum("heat-dirichlet")
    solve = prepare(pair, datum, (0.2, 1.0), (0.05, 0.5))
    assert solve([0.2, 1.0], [0.0, 0.05, 0.5]).values.shape == (3, 2)
    for xs, ts in (([0.19, 0.5], [0.1]), ([0.5, 1.01], [0.1]),
                   ([0.5], [0.049]), ([0.5], [0.0, 0.51])):
        with pytest.raises(ValueError, match="outside the prepared"):
            solve(xs, ts)
    initial = prepare(pair, datum, (0.2, 1.0), None)
    assert initial.packs == []
    np.testing.assert_array_equal(initial([0.5], [0.0]).values,
                                  solve([0.5], [0.0]).values)
    with pytest.raises(ValueError, match="outside the prepared"):
        initial([0.5], [0.1])
    with pytest.raises(NonpositiveX):
        prepare(pair, datum, (0.0, 1.0), (0.05, 0.5))
    with pytest.raises(ValueError):
        prepare(pair, datum, (0.2, 1.0), (0.0, 0.5))


@pytest.mark.parametrize("name", _CATALOG)
def test_solve_grid_is_prepare_on_its_own_window(get_pair, get_datum, name):
    """solve_grid equals the solver prepared on its grid's own window, bit
    for bit, counters included; a solver prepared on a wider window gives
    the values of every grid inside it, within the tail target."""
    pair = get_pair(name)
    datum = get_datum(name)
    xs = np.array([0.3, 0.7, 1.1])
    ts = np.array([0.0, 0.02, 0.05])
    field = solve_grid(pair, datum, xs, ts)
    own = prepare(pair, datum, (0.3, 1.1), (0.02, 0.05))(xs, ts)
    np.testing.assert_array_equal(own.values, field.values)
    assert ((own.nodes, own.applied, own.exponentials)
            == (field.nodes, field.applied, field.exponentials))
    wide = prepare(pair, datum, (0.1, 1.5), (0.01, 0.1))(xs, ts)
    assert wide.nodes > field.nodes
    bound = math.exp(pair.params.tail_log_target)
    assert np.abs(wide.values - field.values).max() < bound


@pytest.mark.parametrize("name", _CATALOG)
def test_scaled_solution_is_the_scaled_datums(get_pair, catalog, name):
    """The solution is linear in the datum: 1e-3 times the solution of a
    datum equals the solution of the datum of amplitude 1e-3 within the
    tail target on the residual stencils of verify_problem (measured at
    most 4.3e-15 against 1e-12), although the scaled datum's rays are cut
    at its own junction values."""
    problem = catalog[name]
    pair = get_pair(name)
    datum = make_datum(problem, problem.datum_kernel, seed=0)
    small = make_datum(problem, problem.datum_kernel, seed=0, amplitude=1e-3)
    ts_res, _, h, _ = verify._EVOLUTION[problem.order]
    xs, ts = oracles.fd_grid(problem.order, np.array([0.3, 0.55, 0.8]),
                             ts_res, h)
    scaled = 1e-3 * solve_grid(pair, datum, xs, ts).values
    direct = solve_grid(pair, small, xs, ts).values
    assert (np.abs(scaled - direct).max()
            < math.exp(pair.params.tail_log_target))


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


def _solved(pair, datum, xs, ts):
    """The field of the grid xs x ts and the solver of its window, whose
    ``jobs`` and ``packs`` then hold every pack of the call."""
    solve = prepare(pair, datum, (xs.min(), xs.max()), (ts.min(), ts.max()))
    return solve(xs, ts), solve


def _every_segment(pair):
    """The library's jobs without the real-coefficient fold: every
    deformed segment, in the library's order, none of them mirrored."""
    return evolution._jobs(deform_for_time(pair.contours), False)


def _every_segment_packs(pair, datum, xs, ts):
    """The :func:`evolution._segment_pack` of every deformed segment, none
    of them mirrored: the apply without the real-coefficient fold."""
    return [(*evolution._segment_pack(pair, datum, seg, k, ts.min(),
                                      ts.max(), xs.min(), xs.max()), False)
            for seg, k, _ in _every_segment(pair)]


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


_exact_decay = evolution._ray_decay


def _ray_envelope(pair, datum, xs, ts, seg, k, decay=_exact_decay):
    """The envelope of the ray ``seg`` of component k for the grid, under
    the model ``decay`` (a :func:`evolution._ray_decay` signature)."""
    scale = pair.junction_scale(lambda z: pair.forward(datum, k, z), seg)
    return decay(pair, seg, k, ts.min(), xs.min(), xs.max(), datum.support,
                 scale)


def _envelope_times(pair, env, seg, lam, ts):
    """The envelope-only drop times of the ray nodes lam."""
    return evolution._last_times(env, np.abs(lam - seg.base), ts.min(),
                                 pair.params.tail_log_target)


def _t_max_packs(pair, datum, xs, ts):
    """The packs with every ray resolved for the largest time all the way
    out (the layout before rays were resolved per time), as an oracle."""
    packs = []
    for seg, k, _ in _every_segment(pair):
        env, rate = None, _rate(pair, datum, xs, seg, k, ts.max())
        if not seg.finite:
            env = _ray_envelope(pair, datum, xs, ts, seg, k)
        nodes = component_nodes(
            [seg], pair.params, lambda _seg: rate, lambda _seg: env)
        lam, w = nodes
        tau = (np.full(lam.size, np.inf) if env is None else
               _envelope_times(pair, env, seg, lam, ts))
        packs.append((lam, w * pair.forward(datum, k, lam), tau, nodes,
                      False))
    return packs


def _worst_case_decay(pair, seg, k, t_min, x_min, x_max, support, scale):
    """:func:`evolution._ray_decay` with every sector ray charged the full
    support growth exp(L u), as though fhat(alpha^p lam) always grew at
    full rate."""
    env = _exact_decay(pair, seg, k, t_min, x_min, x_max, support, scale)
    if k == 0:
        return env
    s = math.sin(seg.angle)
    c1 = (x_min * s if s > 0.0 else x_max * s) - support
    return ExpDecay([env.terms[0], (c1, 1.0)], env.r0, env.log_scale)


def _moduli(pair, xs, ts, lam, wf, keep=None):
    """sum_j |wf_j exp(i lam_j x - a lam_j^n t)| over the (node, t) pairs
    where ``keep`` (nodes x times) holds, every pair by default, as an
    (x, t) array."""
    decay = np.exp(-np.multiply.outer((pair.a * lam ** pair.n).real, ts))
    terms = np.abs(wf)[:, None] * decay
    if keep is not None:
        terms = np.where(keep, terms, 0.0)
    return np.exp(-np.multiply.outer(xs, lam.imag)) @ terms


@pytest.mark.parametrize("name", _CATALOG)
def test_dropped_pairs_are_small_as_computed(get_pair, get_datum, name):
    """The (node, t) pairs that a ray node's own term drops, at t past its
    drop time but before its envelope's, sum in modulus to at most the
    tail target abs_tol / 10 at every (x, t) of the evolve grid, a mirrored
    ray counted twice; and the own terms apply at most 0.75x the pairs of
    the same nodes' envelope-only drop times (0.48 to 0.70 measured)."""
    pair = get_pair(name)
    datum = get_datum(name)
    xs, ts = _evolve_grid(pair.n)
    _, solve = _solved(pair, datum, xs, ts)
    packs = solve.packs
    dropped = np.zeros((xs.size, ts.size))
    envelope_only = []
    for (seg, k, mirrored), pack in zip(solve.jobs, packs):
        lam, wf, tau, nodes, _ = pack
        assert pack[4] == mirrored
        if seg.finite:
            assert np.isinf(tau).all()
            envelope_only.append(pack)
            continue
        tau_env = _envelope_times(
            pair, _ray_envelope(pair, datum, xs, ts, seg, k), seg, lam, ts)
        assert (tau <= tau_env).all()
        own = (tau < tau_env)[:, None] & (ts[None, :] >= tau[:, None])
        dropped += (1 + mirrored) * _moduli(pair, xs, ts, lam, wf, own)
        envelope_only.append((lam, wf, tau_env, nodes, mirrored))
    print(name, f"dropped sum {dropped.max():.3g}")
    assert dropped.max() <= pair.params.abs_tol / 10, dropped.max()
    applied = evolution._apply(pair, xs, ts, packs)[1]
    env_applied = evolution._apply(pair, xs, ts, envelope_only)[1]
    assert applied <= 0.75 * env_applied, (applied, env_applied)


@pytest.mark.parametrize("name", _CATALOG)
def test_exact_growth_matches_worst_case_rays(get_pair, get_datum,
                                              monkeypatch, name):
    """Against the worst-case oracle, sector rays charged exp(L u) with
    envelope-only drop times: solve_grid's values agree within 1e-13 of
    the largest, or within 1e-14 of the terms' moduli sum where that is
    larger, and every node the oracle's longer rays add past the new
    radius has its own term below its share of the tail target from t_min
    on, so its own drop time is at most t_min.  Heat's sector envelopes
    carry no support term: fhat(-lam) does not grow in the upper half
    plane.  Heat-dirichlet applies at most 0.6x the oracle's pairs."""
    pair = get_pair(name)
    datum = get_datum(name)
    xs, ts = _evolve_grid(pair.n)
    t_min, t_max = ts.min(), ts.max()
    log_target = pair.params.tail_log_target
    field, solve = _solved(pair, datum, xs, ts)
    oracle, moduli, added = [], np.zeros((xs.size, ts.size)), 0
    for seg, k, mirrored in solve.jobs:
        lam, wf, tau, nodes = evolution._segment_pack(
            pair, datum, seg, k, t_min, t_max, xs.min(), xs.max())
        moduli += (1 + mirrored) * _moduli(pair, xs, ts, lam, wf)
        with monkeypatch.context() as m:
            m.setattr(evolution, "_ray_decay", _worst_case_decay)
            lam, wf, tau, nodes = evolution._segment_pack(
                pair, datum, seg, k, t_min, t_max, xs.min(), xs.max())
        if not seg.finite:
            worst = _ray_envelope(pair, datum, xs, ts, seg, k,
                                  _worst_case_decay)
            tau = _envelope_times(pair, worst, seg, lam, ts)
            env = _ray_envelope(pair, datum, xs, ts, seg, k)
            beyond = np.abs(lam - seg.base) > env.radius(log_target)
            g = (pair.a * lam[beyond] ** pair.n).real
            assert (g > 0.0).all()
            log_term = (np.log(np.abs(wf[beyond]))
                        + np.maximum(-xs.min() * lam[beyond].imag,
                                     -xs.max() * lam[beyond].imag))
            log_share = log_target - math.log(2 * (pair.N + 1) * lam.size)
            assert (log_term - g * t_min <= log_share).all(), k
            added += int(beyond.sum())
            if pair.n == 2 and k >= 1:
                s = math.sin(seg.angle)
                x_term = xs.min() * s if s > 0.0 else xs.max() * s
                assert env.terms[1:] == ((x_term, 1.0),), env.terms
        oracle.append((lam, wf, tau, nodes, mirrored))
    ref, oracle_applied, _ = evolution._apply(pair, xs, ts, oracle)
    print(name, f"oracle adds {added} ray nodes, applies {oracle_applied}"
          f" pairs against {field.applied}")
    if name == "heat-dirichlet":
        assert field.applied <= 0.6 * oracle_applied
    err = np.abs(field.values - ref)
    assert (err <= np.maximum(1e-13 * np.abs(ref).max(),
                              1e-14 * moduli.T)).all(), err.max()


@pytest.mark.parametrize("name", _CATALOG)
def test_grid_matches_dense_apply(get_pair, get_datum, name):
    """Dropping each time's nodes past its own truncation radius changes no
    value beyond the tail target: solve_grid equals the dense product of
    the packs of every segment."""
    pair = get_pair(name)
    datum = get_datum(name)
    xs, ts = _evolve_grid(pair.n)
    field, solve = _solved(pair, datum, xs, ts)
    assert field.nodes == sum(pack[0].size for pack in solve.packs)
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
    moduli = sum(_moduli(pair, xs, ts, lam, wf) for lam, wf, *_ in per_time)
    err = np.abs(field.values - ref)
    assert (err <= np.maximum(1e-13 * np.abs(ref).max(),
                              1e-14 * moduli.T)).all(), err.max()


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
    rays = 0
    for seg, k, _ in _every_segment(pair):
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
    widths = []
    for seg, k, _ in _every_segment(pair):
        if seg.finite:
            continue
        nodes = evolution._segment_pack(
            pair, datum, seg, k, ts.min(), ts.max(), xs.min(), xs.max())[3]
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
    serial call's values to rounding, and the same work counts.  A second
    threaded call, on the same long-lived workers, gives the first one's
    values bit for bit."""
    pair = get_pair(name)
    datum = get_datum(name)
    xs, ts = _evolve_grid(pair.n)
    monkeypatch.setenv("UTM_THREADS", "2")
    threaded = solve_grid(pair, datum, xs, ts)
    assert np.array_equal(solve_grid(pair, datum, xs, ts).values,
                          threaded.values)
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


@pytest.mark.parametrize("name", _REAL_CATALOG + list(_REAL))
def test_real_product_is_twice_the_real_part(get_problem, name):
    """Every mirrored pack of the evolve grid sums its 2 Re by the real
    product, within 1e-15 of its values' scale (2 max |sums|) of 2 Re of
    the same pack's complex sums (at most 4.3e-16 measured), with the same
    work counts."""
    pair, datum = get_problem(name)
    xs, ts = _evolve_grid(pair.n)
    _, solve = _solved(pair, datum, xs, ts)
    mirrored = [pack for pack in solve.packs if pack[4]]
    assert mirrored
    for pack in mirrored:
        real, *counts = evolution._pack_apply(pair, xs, ts, pack)
        sums, *complex_counts = evolution._pack_apply(pair, xs, ts,
                                                      (*pack[:4], False))
        assert real.dtype == float and counts == complex_counts
        err = np.abs(real - 2.0 * sums.real).max()
        assert err <= 1e-15 * 2.0 * np.abs(sums).max(), err


def test_mirrored_pack_with_nonfinite_imaginary_sums_raises(
        get_pair, get_datum, monkeypatch):
    """A mirrored pack whose imaginary sums alone overflow still raises.
    Two nodes of gamma0's outgoing ray, pushed to terms of 1e308 i each at
    (x, t) = (0.5, 0.2), overflow the imaginary sums and leave the real
    ones finite: past the real product's bound, the pack takes the complex
    product, whose finiteness check sees the overflow; with the bound
    lifted, the real product would return finite values."""
    pair = get_pair("lkdv-dirichlet")
    datum = get_datum("lkdv-dirichlet")
    assert pair.mirrored
    x, t = 0.5, 0.2
    segment_pack = evolution._segment_pack
    pushed = []

    def pushing_pack(pair, datum, seg, k, *window):
        lam, wf, tau, nodes = segment_pack(pair, datum, seg, k, *window)
        if k == 0 and not seg.finite:
            j = [0, 1]
            wf[j] = 1e308j / np.exp(1j * lam[j] * x
                                    - pair.a * lam[j] ** pair.n * t)
            tau[j] = np.inf
            pushed.append(wf[j])
        return lam, wf, tau, nodes

    monkeypatch.setattr(evolution, "_segment_pack", pushing_pack)
    with pytest.raises(ToleranceNotMet, match="0.2"):
        solve_grid(pair, datum, [x], [t])
    assert len(pushed) == 1 and np.isfinite(pushed[0]).all()
    monkeypatch.setattr(evolution, "_sums_are_finite", lambda *args: True)
    assert np.isfinite(solve_grid(pair, datum, [x], [t]).values).all()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_prepared_solver_builds_each_pack_once(get_pair, get_datum,
                                               monkeypatch, threads):
    """prepare builds nothing; its solver's first call with a positive time
    builds every job's pack, once, and later calls and times 0 alone build
    none: prepare and three grid calls run _segment_pack once per job."""
    pair = get_pair("heat-neumann")
    datum = get_datum("heat-neumann")
    built = []
    segment_pack = evolution._segment_pack

    def counting_pack(pair, datum, seg, k, *window):
        built.append((id(seg), k, window))
        return segment_pack(pair, datum, seg, k, *window)

    monkeypatch.setattr(evolution, "_segment_pack", counting_pack)
    monkeypatch.setenv("UTM_THREADS", threads)
    solve = prepare(pair, datum, (0.2, 1.2), (0.05, 0.5))
    assert built == [] and solve.packs == [None] * len(solve.jobs)
    solve([0.2], [0.0])
    assert built == []
    fields = [solve(xs, ts) for xs, ts in (([0.2, 0.7], [0.05, 0.5]),
                                           ([0.4, 1.2], [0.1]),
                                           ([1.0], [0.0, 0.3]))]
    assert sorted(built) == sorted(
        (id(seg), k, (0.05, 0.5, 0.2, 1.2)) for seg, k, _ in solve.jobs)
    assert len(set(built)) == len(built)
    assert {f.nodes for f in fields} == {sum(p[0].size for p in solve.packs)}
