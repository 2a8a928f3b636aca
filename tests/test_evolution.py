"""Time evolution along deformed contours against independent references."""

import math

import numpy as np
import pytest

from halfline import evolution
from halfline.errors import NonpositiveX
from halfline.evolution import solve_grid
from halfline.oracles import heat_dirichlet_solution, heat_neumann_solution
from halfline.quadrature import ExpDecay


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


def test_theta_fraction_invariance(get_pair, get_datum):
    """The contour rotation depth cannot change the solution value."""
    pair = get_pair("lkdv-dirichlet")
    datum = get_datum("lkdv-dirichlet")
    vals = [solve_grid(pair, datum, [0.5], [0.2],
                       theta_fraction=f).values[0, 0]
            for f in (0.5, 0.25)]
    assert abs(vals[0] - vals[1]) < 1e-8


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


@pytest.mark.parametrize("name", ["lkdv-dirichlet", "reverse-lkdv",
                                  "heat-dirichlet", "heat-neumann",
                                  "robin-4"])
def test_grid_matches_dense_apply(get_pair, get_datum, name):
    """Dropping each time's nodes past its own truncation radius changes no
    value beyond the tail target: solve_grid equals the dense product of
    the same packs."""
    pair = get_pair(name)
    datum = get_datum(name)
    xs, ts = _evolve_grid(pair.n)
    field = solve_grid(pair, datum, xs, ts)
    packs = evolution._packs(pair, datum, xs, ts, 0.5)
    ref = _dense_apply(pair, xs, ts, packs)
    assert field.nodes == sum(pack[0].size for pack in packs)
    err = np.abs(field.values - ref)
    assert (err <= 1e-11 + 1e-12 * np.abs(ref)).all(), err.max()


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
    """Later times drop the ray nodes past their truncation radius, so far
    fewer (node, time) pairs are applied than the dense nodes x times; the
    factored phases take far fewer exponentials than one per node and x."""
    pair = get_pair("heat-dirichlet")
    datum = get_datum("heat-dirichlet")
    xs, ts = _evolve_grid(pair.n)
    field = solve_grid(pair, datum, xs, ts)
    assert field.nodes > 0
    assert field.applied < 0.5 * field.nodes * len(ts)
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
