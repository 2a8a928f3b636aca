"""The evaluation plan of verify_problem."""

import dataclasses
import sys
import threading

import numpy as np
import pytest

from halfline import evolution, util, verify
from halfline.datum import DataStack
from halfline.evolution import prepare, solve_grid
from halfline.problems import HalfLineProblem
from halfline.transforms import TransformPair


@pytest.fixture
def off_main(monkeypatch):
    """Runs UTM_THREADS=2 and returns the list of parallel_map calls made
    off the main thread, recorded at every module binding of it.  A call on
    a worker would run serially there, not on the pool."""
    monkeypatch.setenv("UTM_THREADS", "2")
    calls = []
    original = util.parallel_map

    def recording(fn, items):
        if threading.current_thread() is not threading.main_thread():
            calls.append(threading.current_thread().name)
        return original(fn, items)

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "halfline"
                and getattr(module, "parallel_map", None) is original):
            monkeypatch.setattr(module, "parallel_map", recording)
    return calls


# calls of the prepared solver, and the residual grid's xs: 3 centres of 5
# stencil columns at order 2, of 7 at order 4
@pytest.mark.parametrize("name, solves, columns",
                         [("heat-neumann", 3, 5), ("robin-4", 2, 7)])
def test_verify_solves_one_grid_per_datum_on_the_callers_thread(
        catalog, monkeypatch, off_main, name, solves, columns):
    """The nine residual points come from one call of the one prepared
    solver, beside the boundary forms' call and, on the heat problems, the
    oracle's; no parallel_map runs on a worker.  The order check names its
    band."""
    prepared = []
    counted = []

    def preparing(*args, **kwargs):
        solve = prepare(*args, **kwargs)
        prepared.append(solve)

        def counting(xs, ts):
            counted.append((xs, ts))
            return solve(xs, ts)
        return counting

    monkeypatch.setattr(verify, "prepare", preparing)
    results = verify.verify_problem(catalog[name])
    assert verify.all_passed(results)
    assert len(prepared) == 1
    assert len(counted) == solves
    xs, ts = counted[0]
    assert (len(xs), len(ts)) == (3 * columns, 3 * 5)
    order = next(r for r in results if r.name == "evolution-order")
    assert "band [2.5, 6.0]" in order.detail
    assert off_main == []


@pytest.mark.parametrize("name", ["heat-neumann", "robin-4"])
def test_verify_builds_its_evolution_packs_once(catalog, monkeypatch, name):
    """One verify_problem builds one set of segment packs, of the first
    datum, for the window of every grid its evolution checks ask for, and
    calls no solve_grid: at order 4 the amplitude-1e-3 solution is 1e-3
    times the first datum's, whose packs serve it too."""
    builds = []
    packs = evolution._packs

    def counting_packs(pair, datum, xs, ts):
        builds.append((datum, xs, ts))
        return packs(pair, datum, xs, ts)

    def no_solve_grid(*args):
        raise AssertionError("verify_problem called solve_grid")

    trios = []
    trio_of = verify.data_trio

    def recording_trio(*args, **kwargs):
        trios.append(trio_of(*args, **kwargs))
        return trios[-1]

    monkeypatch.setattr(evolution, "_packs", counting_packs)
    monkeypatch.setattr(verify, "solve_grid", no_solve_grid)
    monkeypatch.setattr(verify, "data_trio", recording_trio)
    results = verify.verify_problem(catalog[name])
    assert verify.all_passed(results)
    assert len(builds) == 1
    datum, xs, ts = builds[0]
    assert datum is trios[0][0]
    # the window runs from the boundary stencils' first point, h / 2, to
    # the residual stencils' or the oracle grid's last
    ts_res, ts_bnd, h, _ = verify._EVOLUTION[catalog[name].order]
    assert xs[0] == h / 2
    if name == "heat-neumann":
        assert (xs[1], ts[0], ts[1]) == (1.5, 0.01, 1.0)
    else:
        assert ts[0] == min(ts_res) - h and ts[1] == max(ts_res) + h


def test_solve_grid_maps_only_from_the_callers_thread(get_pair, get_datum,
                                                      off_main):
    """A 400 x 100 solve builds and applies its packs on workers that make
    no parallel_map call of their own."""
    xs = np.linspace(1.5 / 400, 1.5, 400)
    ts = 0.3 * np.linspace(0.1, 1.0, 100)
    field = solve_grid(get_pair("heat-dirichlet"), get_datum("heat-dirichlet"),
                       xs, ts)
    assert np.isfinite(field.values).all()
    assert off_main == []


@pytest.mark.parametrize("name", ["lkdv-dirichlet", "reverse-lkdv",
                                  "heat-dirichlet", "heat-neumann", "robin-4"])
def test_evolution_initial_row_is_the_datums_reconstruction(get_pair, catalog,
                                                            name):
    """The first row of verify's stacked inversion, on the stack's
    resolution layout, is within 1e-10 of pair.reconstruct(trio[0], xs20)
    alone, which solve_grid's t = 0 row reproduces bit for bit: the first
    datum's own base rate is the lower one, and fhat's rounding carried
    over the real line's tail moves the row by about 2.6e-11, four orders
    below reconstruction's 1e-6 tolerance.  So reconstruction, the
    stack's maximum, bounds the evolution's t = 0 row too."""
    pair = get_pair(name)
    trio = verify.data_trio(catalog[name], 0)
    xs20 = np.linspace(0.05, 1.0, 20)
    parts = pair.components(DataStack(trio), xs20)
    row = sum(parts[1:], parts[0])[0]
    diff = float(np.abs(row - pair.reconstruct(trio[0], xs20)).max())
    print(f"{name}: stacked t = 0 row within {diff:.2e} of reconstruct")
    assert diff <= 1e-10


def test_heat_robin_passes_without_an_oracle():
    """Heat with a Robin condition, 2 q(0) + q_x(0) = 0, lies outside the
    catalog: every check passes, and no sine or cosine oracle matches its
    boundary form, so there is no heat-oracle line."""
    B = np.array([[2.0, 1.0]])
    problem = HalfLineProblem(2, 1.0, B, label="heat-robin")
    results = verify.verify_problem(problem)
    assert verify.all_passed(results)
    assert "heat-oracle" not in [r.name for r in results]


@pytest.mark.parametrize("B", [[[1.0, 0.0]], [[0.0, 1.0]]],
                         ids=["dirichlet", "neumann"])
def test_rotated_heat_passes_with_an_images_oracle(B):
    """Rotated heat, a = e^{0.3i}, lies outside the catalog: every check
    passes, the heat-oracle line among them, against the images sum of its
    own a."""
    B = np.array(B)
    problem = HalfLineProblem(2, np.exp(0.3j), B, label="rotated-heat")
    results = verify.verify_problem(problem)
    assert verify.all_passed(results)
    assert "heat-oracle" in [r.name for r in results]


def test_heat_oracle_fails_a_solver_with_a_rotated(catalog, monkeypatch):
    """A solver built from heat-dirichlet with a rotated by 1e-3 rad,
    checked against the true problem's a = 1 images sum on the verify grid,
    FAILs heat-oracle: the fields differ by about 6.7e-5."""
    true = catalog["heat-dirichlet"]
    mutant = dataclasses.replace(true, a=np.exp(1e-3j))
    monkeypatch.setattr(verify, "TransformPair",
                        lambda problem, params=None: TransformPair(mutant, params))
    results = verify.verify_problem(true)
    oracle = next(r for r in results if r.name == "heat-oracle")
    assert not oracle.passed
    assert oracle.value > 10.0 * verify._TOL_ORACLE


@pytest.mark.parametrize("a, forms", [(-1j, 2), (1j, 3)], ids=["a=-i", "a=i"])
def test_order_five_passes_every_check(a, forms):
    """Order 5 with a = -i, B = (e1, e2), and with a = i, B = (e1, e2,
    e3), lies outside the catalog: every check passes at seed 0 and
    default params.  remainder reads at most 9e-16 against its 1e-12.
    F[Sf] comes from fhat by parts: a Gauss sum of f(5) itself,
    under-resolved at small |mu|, read 1.6e-7."""
    problem = HalfLineProblem(5, a, np.eye(5)[:forms], label="order-5")
    results = verify.verify_problem(problem)
    assert verify.all_passed(results), [r.line() for r in results
                                        if not r.passed]
