"""Tests for the line-oriented configuration parser."""

import dataclasses
import multiprocessing
import os
import sys
import threading
import time

import numpy as np
import pytest

from halfline import config
from halfline.boundary import maximal_kernel
from halfline.config import RunConfig, load_config, parse_config, parse_grid
from halfline.datum import make_datum
from halfline.errors import ConfigError
from halfline.quadrature import QuadratureParams
from halfline.util import _openblas, parallel_map, thread_count

FULL = """\
# heat conduction with a Robin-style form
order = 2
a = 1, 0            # dispersion coefficient re,im
label = demo run
allow_complex = yes

bc = 1, 0.5
bc = 0, 1

datum.kernel = 0, 1
datum.support = 2.5
datum.seed = 7

quad.abs_tol = 1e-10

solve.xs = 0.25, 0.5, 1.0
solve.ts = 0:0.05:0.2
"""


def test_parse_full_config():
    """Every documented key lands in the matching RunConfig field."""
    cfg = parse_config(FULL)
    assert cfg.order == 2
    assert cfg.a == 1 + 0j
    assert cfg.label == "demo run"
    assert cfg.allow_complex is True
    assert cfg.bc_rows == [[1 + 0j, 0.5 + 0j], [0j, 1 + 0j]]
    assert cfg.datum_kernel == (0.0, 1.0)
    assert cfg.datum_support == 2.5
    assert cfg.datum_seed == 7
    assert cfg.quad == {"abs_tol": 1e-10}
    np.testing.assert_allclose(cfg.xs, [0.25, 0.5, 1.0])
    np.testing.assert_allclose(cfg.ts, [0.0, 0.05, 0.1, 0.15, 0.2])


def test_defaults_and_blank_lines():
    """Comments and blank lines are ignored; unset keys keep defaults."""
    cfg = parse_config("# nothing but comments\n\n   \norder = 3\n")
    assert cfg.order == 3
    assert cfg.a is None
    assert cfg.bc_rows == []
    assert cfg.label == ""
    assert cfg.allow_complex is False
    assert cfg.datum_kernel == ()
    assert cfg.datum_support == 1.0
    assert cfg.datum_seed == 0
    assert cfg.quad == {}
    assert cfg.xs is None and cfg.ts is None


def test_bc_accepts_complex_entries():
    """bc coefficients parse through complex() so 1+2j style entries work."""
    cfg = parse_config("order = 2\nbc = 1+2j, 3\nbc = 0, 1j\n")
    assert cfg.bc_rows == [[1 + 2j, 3 + 0j], [0j, 1j]]


def test_duplicate_key_reports_both_lines():
    """Duplicate scalar keys name the clashing line and the original."""
    text = "order = 2\nlabel = one\n\nlabel = two\n"
    with pytest.raises(ConfigError,
                       match=r"line 4: duplicate key 'label' \(first on line 2\)"):
        parse_config(text)


def test_bc_is_repeatable():
    """bc is the one repeatable key; three lines give three rows."""
    cfg = parse_config("order = 3\nbc = 1,0,0\nbc = 0,1,0\nbc = 0,0,1\n")
    assert len(cfg.bc_rows) == 3


def test_unknown_key():
    with pytest.raises(ConfigError, match=r"line 1: unknown key 'spam'"):
        parse_config("spam = 1\n")
    # QuadratureParams.rel_tol has no key: no library path reads it; the
    # Gauss rule is fixed in halfline.quadrature
    for key in ("quad.rel_tol", "quad.density", "quad.max_order"):
        with pytest.raises(ConfigError, match=f"line 1: unknown key '{key}'"):
            parse_config(f"{key} = 8\n")


def test_missing_equals_sign():
    with pytest.raises(ConfigError, match=r"line 2: expected key=value"):
        parse_config("order = 2\njust some words\n")


def test_bc_length_checked_against_order():
    """A bc row with the wrong arity is reported on its own line number."""
    with pytest.raises(ConfigError,
                       match=r"line 3: bc needs 3 coefficients, got 2"):
        parse_config("order = 3\nbc = 1,0,0\nbc = 1,0\n")


def test_order_must_be_integer_at_least_two():
    with pytest.raises(ConfigError, match=r"line 1: order must be an integer"):
        parse_config("order = 2.5\n")
    with pytest.raises(ConfigError, match=r"line 1: order must be at least 2"):
        parse_config("order = 1\n")


def test_a_arity_and_number_errors():
    with pytest.raises(ConfigError, match=r"line 1: a takes exactly two"):
        parse_config("a = 1\n")
    with pytest.raises(ConfigError, match=r"line 1: bad number 'q' in a"):
        parse_config("a = 1, q\n")


def test_bad_boolean():
    with pytest.raises(ConfigError,
                       match=r"line 1: allow_complex must be a boolean"):
        parse_config("allow_complex = maybe\n")


def test_boolean_spellings():
    """All four truthy and falsy spellings are accepted."""
    for text, want in [("true", True), ("YES", True), ("1", True),
                       ("on", True), ("false", False), ("No", False),
                       ("0", False), ("off", False)]:
        cfg = parse_config(f"allow_complex = {text}\n")
        assert cfg.allow_complex is want


def test_datum_seed_none_and_errors():
    assert parse_config("datum.seed = none\n").datum_seed is None
    assert parse_config("datum.seed = NONE\n").datum_seed is None
    with pytest.raises(ConfigError,
                       match=r"line 1: datum.seed must be an integer or none"):
        parse_config("datum.seed = 1.5\n")


def test_datum_support_positive():
    with pytest.raises(ConfigError,
                       match=r"line 1: datum.support must be positive"):
        parse_config("datum.support = 0\n")


def test_quad_bad_value():
    with pytest.raises(ConfigError, match=r"line 1: bad value for quad.abs_tol"):
        parse_config("quad.abs_tol = tiny\n")


def test_bad_bc_coefficient():
    with pytest.raises(ConfigError, match=r"line 2: bad coefficient 'z' in bc"):
        parse_config("order = 2\nbc = 1, z\n")


def test_parse_grid_range_inclusive():
    """start:step:stop includes the stop point when it lands on the grid."""
    np.testing.assert_allclose(parse_grid("0:0.25:1"),
                               [0.0, 0.25, 0.5, 0.75, 1.0])
    np.testing.assert_allclose(parse_grid("1:2:6"), [1.0, 3.0, 5.0])
    np.testing.assert_allclose(parse_grid("0.5, 1.5,3"), [0.5, 1.5, 3.0])
    np.testing.assert_allclose(parse_grid("2"), [2.0])


def test_parse_grid_errors():
    with pytest.raises(ConfigError, match=r"grid step must be positive"):
        parse_grid("0:-1:5")
    with pytest.raises(ConfigError, match=r"range must be start:step:stop"):
        parse_grid("0:1")
    with pytest.raises(ConfigError, match=r"bad number 'x' in grid"):
        parse_grid("1, x")
    # line number threads through to the message when provided
    with pytest.raises(ConfigError, match=r"line 9: solve.xs range .* is empty"):
        parse_grid("5:1:0", key="solve.xs", lineno=9)


@pytest.mark.parametrize("text", ["0.1, nan", "inf", "0:0.1:inf", "-inf:1:2"])
def test_parse_grid_rejects_a_nonfinite_entry(text):
    """A NaN or infinite entry, of a list or a range, is an error naming
    the key; a range to infinity would otherwise overflow its count."""
    with pytest.raises(ConfigError, match=r"line 4: solve.ts entries must be "
                                          r"finite"):
        parse_grid(text, key="solve.ts", lineno=4)


def test_build_problem_round_trip():
    """A parsed config builds a validated problem with the same data; the
    problem's jet derives from its boundary forms, not from datum.kernel."""
    cfg = parse_config("order = 2\na = 1,0\nbc = 1,0\nlabel = mine\n"
                       "datum.kernel = 0,0.5\n")
    prob = cfg.build_problem()
    assert prob.order == 2
    assert prob.a == 1 + 0j
    assert prob.label == "mine"
    np.testing.assert_allclose(prob.boundary_matrix, [[1, 0]])
    assert prob.datum_kernel == (0.0, 1.0)


def test_build_problem_missing_keys():
    with pytest.raises(ConfigError, match=r"missing required key 'order'"):
        parse_config("a = 1,0\nbc = 1,0\n").build_problem()
    with pytest.raises(ConfigError, match=r"missing required key 'a'"):
        parse_config("order = 2\nbc = 1,0\n").build_problem()
    with pytest.raises(ConfigError, match=r"missing boundary forms"):
        parse_config("order = 2\na = 1,0\n").build_problem()


def test_build_params_and_datum():
    """build_params applies quad overrides; build_datum honors seed/support."""
    cfg = parse_config("order = 2\na = 1,0\nbc = 1,0\n"
                       "datum.kernel = 0,1\ndatum.support = 2.0\n"
                       "datum.seed = none\nquad.abs_tol = 1e-9\n")
    params = cfg.build_params()
    assert params.abs_tol == 1e-9
    assert params.rel_tol == 1e-9  # untouched default
    datum = cfg.build_datum()
    assert datum.support == 2.0
    assert datum.seed is None
    assert datum.kernel_coeffs == (0.0, 1.0)
    assert datum.value(0.0) == 0.0


def test_build_datum_falls_back_to_problem_kernel():
    """Without datum.kernel the problem's own admissible kernel is used:
    the maximal kernel of its boundary forms.  ``datum.kernel = 0`` keeps
    the bump-only datum."""
    text = "order = 2\na = 1,0\nbc = 1,0\n"
    cfg = parse_config(text)
    prob = cfg.build_problem()
    datum = cfg.build_datum(prob)
    assert datum.kernel_coeffs == maximal_kernel(prob.boundary_matrix)
    assert datum.kernel_coeffs == (0.0, 1.0)
    bump = parse_config(text + "datum.kernel = 0\n").build_datum(prob)
    xs = np.linspace(0.0, 1.0, 11)
    np.testing.assert_array_equal(bump.value(xs), make_datum(prob, ()).value(xs))


def test_load_config(tmp_path):
    """load_config reads a file path and matches parse_config on the text."""
    path = tmp_path / "run.cfg"
    path.write_text(FULL, encoding="utf-8")
    cfg = load_config(path)
    assert cfg.order == 2
    assert cfg.datum_seed == 7


def test_runconfig_is_plain_dataclass():
    """RunConfig() with no arguments is usable as an empty starting point."""
    cfg = RunConfig()
    assert cfg.order is None
    with pytest.raises(ConfigError):
        cfg.build_problem()


def test_quadrature_options_are_exactly_the_config_keys():
    """Every QuadratureParams field is settable as quad.<field>, and no key
    names anything else: an option no caller can set fails here."""
    fields = {f.name for f in dataclasses.fields(QuadratureParams)}
    # rel_tol is read only by integrate_segment, which no library path
    # calls, so no key sets it; the field stays while perfbench's
    # VERIFY_PARAMS passes it
    fields.remove("rel_tol")
    assert {key: name for key, (name, _) in config._QUAD_KEYS.items()} == {
        f"quad.{name}": name for name in fields}


@pytest.mark.parametrize("value", ["abc", "0", "-3"])
def test_malformed_utm_threads_raises(monkeypatch, value):
    """UTM_THREADS must be a positive integer; anything else is an error
    naming the value, not a silent default."""
    monkeypatch.setenv("UTM_THREADS", value)
    with pytest.raises(ConfigError, match=f"UTM_THREADS.*'{value}'"):
        thread_count()


def test_utm_threads_sets_the_worker_count(monkeypatch):
    monkeypatch.setenv("UTM_THREADS", " 3 ")
    assert thread_count() == 3
    monkeypatch.setenv("UTM_THREADS", "")
    assert 1 <= thread_count() <= 8


def test_parallel_map_holds_blas_at_one_thread(monkeypatch):
    """While threaded workers run, BLAS reports one thread.  The count from
    before is back after the last of several concurrent calls returns and
    after a worker raises.  With UTM_THREADS=1 nothing threads and BLAS is
    left alone.  Switching threads every microsecond, a lost update of the
    holders' count would restore BLAS under a running call or leave it
    pinned."""
    blas = _openblas()
    if blas is None:
        pytest.skip("numpy's BLAS exports no OpenBLAS thread count")
    get, set_ = blas
    session = get()
    switch = sys.getswitchinterval()
    set_(2)
    try:
        sys.setswitchinterval(1e-6)
        monkeypatch.setenv("UTM_THREADS", "4")
        seen = []
        callers = [threading.Thread(
            target=lambda: seen.extend(
                parallel_map(lambda _: get(), range(4)) for _ in range(20)))
            for _ in range(4)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
            assert not caller.is_alive()
        assert seen == [[1] * 4] * 80
        assert get() == 2

        def fail_one(i):
            if i == 3:
                raise ValueError("worker failed")
            return get()

        with pytest.raises(ValueError, match="worker failed"):
            parallel_map(fail_one, range(8))
        assert get() == 2

        monkeypatch.setenv("UTM_THREADS", "1")
        assert parallel_map(lambda _: get(), range(3)) == [2, 2, 2]
    finally:
        sys.setswitchinterval(switch)
        set_(session)


def test_parallel_map_reuses_its_workers(monkeypatch):
    """Two calls at UTM_THREADS=2 run on the same two worker threads, which
    stay alive between calls.  The first call's items meet at a barrier, so
    both workers exist; the second call's eight items use no other thread."""
    monkeypatch.setenv("UTM_THREADS", "2")
    barrier = threading.Barrier(2, timeout=30)

    def meet(_):
        barrier.wait()
        return threading.current_thread()

    first = set(parallel_map(meet, range(2)))
    assert len(first) == thread_count() == 2
    assert threading.current_thread() not in first
    assert all(worker.is_alive() for worker in first)
    second = set(parallel_map(lambda _: threading.current_thread(), range(8)))
    assert second <= first


def test_parallel_map_on_a_worker_runs_serially_there(monkeypatch):
    """A parallel_map called on one of the pool's workers returns the
    serial result on that worker; with every worker waiting on a nested
    call, submitting it to the shared pool would never return."""
    monkeypatch.setenv("UTM_THREADS", "2")

    def outer(i):
        me = threading.current_thread()
        return parallel_map(
            lambda j: (threading.current_thread() is me, 10 * i + j), range(4))

    out = []
    caller = threading.Thread(
        target=lambda: out.append(parallel_map(outer, range(2))), daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive()
    assert out == [[[(True, 10 * i + j) for j in range(4)] for i in range(2)]]


def test_parallel_map_leaves_no_item_running_when_it_raises(monkeypatch):
    """The workers outlive the call, but a call that raises has waited for
    its items that were already running, as one that returns has."""
    monkeypatch.setenv("UTM_THREADS", "2")
    started, finished = [], []

    def item(i):
        if i == 0:
            raise ValueError("first item failed")
        started.append(i)
        time.sleep(0.01)
        finished.append(i)

    with pytest.raises(ValueError, match="first item failed"):
        parallel_map(item, range(8))
    assert sorted(started) == sorted(finished)

def test_parallel_map_resizes_its_pool_under_concurrent_callers(monkeypatch):
    """Four callers map while UTM_THREADS switches 2 -> 3 -> 2 between their
    calls: every call returns its ordered results, and none submits to a
    pool that another caller's resize already shut down."""
    monkeypatch.setenv("UTM_THREADS", "2")
    errors, finished = [], []

    def call():
        try:
            for _ in range(100):
                got = parallel_map(lambda i: i * i, range(6))
                if got != [i * i for i in range(6)]:
                    errors.append(got)
            finished.append(True)
        except Exception as exc:  # reported below, with its type
            errors.append(repr(exc))

    callers = [threading.Thread(target=call) for _ in range(4)]
    switch = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for caller in callers:
            caller.start()
        deadline = time.monotonic() + 60
        while (any(caller.is_alive() for caller in callers)
               and time.monotonic() < deadline):
            for value in ("3", "2"):
                os.environ["UTM_THREADS"] = value
                time.sleep(1e-4)
        for caller in callers:
            caller.join(timeout=60)
            assert not caller.is_alive()
    finally:
        sys.setswitchinterval(switch)
    assert errors == []
    assert len(finished) == 4


def _map_in_child():
    if parallel_map(lambda i: i * i, range(6)) != [i * i for i in range(6)]:
        raise SystemExit(1)


def test_parallel_map_in_a_forked_child(monkeypatch):
    """A forked child does not inherit the parent's pool, whose threads it
    lacks: its own threaded call returns, and it exits 0."""
    monkeypatch.setenv("UTM_THREADS", "2")
    assert parallel_map(lambda i: i, range(4)) == [0, 1, 2, 3]
    child = multiprocessing.get_context("fork").Process(target=_map_in_child)
    child.start()
    try:
        child.join(timeout=60)
        assert child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()
            child.join(timeout=10)
