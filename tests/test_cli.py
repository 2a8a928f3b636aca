"""Tests for the command-line interface."""

import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import halfline
from halfline.cli import run
from halfline.config import parse_config
from halfline.datum import DataStack, make_datum
from halfline.evolution import solve_grid
from halfline.problems import HalfLineProblem
from halfline.spectral import check_type_I, check_type_II, remainder_report
from halfline.transforms import TransformPair
from halfline.verify import data_trio, verify_problem


def _csv_rows(text: str, width: int):
    """Parse CSV rows of a given width out of mixed stdout text."""
    return [row for row in csv.reader(io.StringIO(text)) if len(row) == width]


def test_classify_builtin(capsys):
    """classify prints order, a, count, and admissibility for a catalog name."""
    assert run(["classify", "--builtin", "lkdv-dirichlet"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "order = 3" in out
    assert "a = 0,-1" in out
    assert "N = 1" in out
    assert "admissible = yes" in out
    assert not any(line.startswith("reason") for line in out)

    assert run(["classify", "--builtin", "robin-4"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "order = 4" in out
    assert "N = 2" in out


def test_classify_explicit_pair(capsys):
    """--order/--a classify an ad-hoc pair, reporting inadmissibility reasons."""
    # --a=-1,0 spelling keeps argparse from reading the value as a flag
    assert run(["classify", "--order", "2", "--a=-1,0"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "admissible = no" in out
    assert "reason = Re(a) < 0 for even order" in out


def test_classify_order_requires_a(capsys):
    assert run(["classify", "--order", "3"]) == 2
    err = capsys.readouterr().err
    assert "config error: --order and --a must be given together" in err


def test_classify_too_low_order_is_rc3(capsys):
    """Library errors surface as exit code 3 with the exception name."""
    assert run(["classify", "--order", "1", "--a", "1,0"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: WrongConditionCount:")


def test_unknown_builtin(capsys):
    assert run(["delta-roots", "--builtin", "nope"]) == 2
    err = capsys.readouterr().err
    assert "config error: unknown builtin 'nope'" in err
    assert "heat-dirichlet" in err  # lists what is available


def test_problem_source_required(capsys):
    assert run(["contours"]) == 2
    err = capsys.readouterr().err
    assert "one of --builtin or --problem is required" in err


def test_contours_csv_structure(capsys):
    """contours emits 17 samples per segment for Gamma0 and each Gamma_k."""
    assert run(["contours", "--builtin", "heat-dirichlet"]) == 0
    out = capsys.readouterr().out
    rows = _csv_rows(out, 5)
    assert rows[0] == ["contour", "segment", "s", "re", "im"]
    data = rows[1:]
    assert len(data) == 2 * 3 * 17  # two contours, three segments each
    assert {r[0] for r in data} == {"Gamma0", "Gamma1"}
    for name in ("Gamma0", "Gamma1"):
        for seg in ("0", "1", "2"):
            chunk = [r for r in data if r[0] == name and r[1] == seg]
            assert len(chunk) == 17
            ss = [float(r[2]) for r in chunk]
            assert ss[0] == 0.0 and ss[-1] == 1.0
            for r in chunk:  # every sample is a finite point
                assert np.isfinite(float(r[3])) and np.isfinite(float(r[4]))


def test_delta_roots_csv(tmp_path, capsys):
    """delta-roots writes the root list, CRLF-terminated and reproducible."""
    out_a = tmp_path / "a"
    assert run(["delta-roots", "--builtin", "robin-4", "--out", str(out_a)]) == 0
    msg = capsys.readouterr().out
    path = out_a / "delta-roots.csv"
    assert f"wrote {path}" in msg
    raw = path.read_bytes()
    assert b"\r\n" in raw

    rows = list(csv.reader(io.StringIO(raw.decode())))
    assert rows[0] == ["re", "im", "multiplicity"]
    roots = {(float(r[0]), float(r[1])): int(r[2]) for r in rows[1:]}
    assert len(roots) == 3
    # double root at the origin plus simple roots at -2-2i and 1.5+1.5i
    for (re, im), mult in roots.items():
        if abs(re) < 1e-6 and abs(im) < 1e-6:
            assert mult == 2
        elif re < 0:
            assert mult == 1
            np.testing.assert_allclose((re, im), (-2.0, -2.0), atol=1e-6)
        else:
            assert mult == 1
            np.testing.assert_allclose((re, im), (1.5, 1.5), atol=1e-6)

    out_b = tmp_path / "b"
    assert run(["delta-roots", "--builtin", "robin-4", "--out", str(out_b)]) == 0
    capsys.readouterr()
    assert (out_b / "delta-roots.csv").read_bytes() == raw


def test_solve_csv_matches_library(tmp_path, capsys, get_pair, get_datum):
    """solve CSV values equal solve_grid on the same grid, time-major order."""
    xs, ts = [0.5, 1.0], [0.0, 0.1]
    assert run(["solve", "--builtin", "heat-dirichlet",
                "--xs", "0.5,1.0", "--ts", "0,0.1",
                "--out", str(tmp_path)]) == 0
    err = capsys.readouterr().err
    rows = list(csv.reader((tmp_path / "solve.csv").open()))
    assert rows[0] == ["x", "t", "re_q", "im_q"]
    data = rows[1:]
    assert [(float(r[0]), float(r[1])) for r in data] == [
        (0.5, 0.0), (1.0, 0.0), (0.5, 0.1), (1.0, 0.1)]

    field = solve_grid(get_pair("heat-dirichlet"), get_datum("heat-dirichlet"),
                       xs, ts)
    got = np.array([complex(float(r[2]), float(r[3])) for r in data])
    want = np.array([field.values[i, j] for i in range(2) for j in range(2)])
    np.testing.assert_array_equal(got, want)
    # the quadrature's node and exponential counts go to stderr, one line
    assert field.nodes > 0 and 0 < field.applied <= field.nodes
    assert field.exponentials > field.applied
    assert err.splitlines() == [
        f"quadrature nodes = {field.nodes}, "
        f"(node, time) pairs applied = {field.applied}, "
        f"complex exponentials = {field.exponentials}"]


def test_reconstruct_pass_and_fail(capsys):
    """reconstruct reports the max error and gates the exit code on --tol."""
    assert run(["reconstruct", "--builtin", "heat-dirichlet",
                "--xs", "0.3,0.8"]) == 0
    out = capsys.readouterr().out
    rows = _csv_rows(out, 5)
    assert rows[0] == ["x", "f", "re_recon", "im_recon", "abs_err"]
    assert len(rows) == 3
    last = out.splitlines()[-1]
    assert last.startswith("max reconstruction error = ")
    assert "(PASS at tol 1e-06)" in last

    assert run(["reconstruct", "--builtin", "heat-dirichlet",
                "--xs", "0.3,0.8", "--tol", "1e-30"]) == 1
    assert "(FAIL at tol 1e-30)" in capsys.readouterr().out.splitlines()[-1]


@pytest.mark.parametrize("problem", [
    "order = 2\na = 1,0\nbc = 1,0\n",
    "order = 3\na = 0,1\nbc = 1,0,0\nbc = 0,1,0\n"])
def test_reconstruct_zero_datum(tmp_path, capsys, problem):
    """A zero datum (heat-dirichlet and reverse-lkdv forms) reconstructs to
    zero and passes, at the default and at looser quadrature tolerances."""
    for quad in ("", "quad.abs_tol = 1e-9\n"):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(problem + quad + "datum.kernel = 0,0\ndatum.seed = none\n",
                       encoding="utf-8")
        assert run(["reconstruct", "--problem", str(cfg),
                    "--xs", "0.3,0.8"]) == 0
        out = capsys.readouterr().out
        assert [row[2:] for row in _csv_rows(out, 5)[1:]] == [
            ["0.0", "0.0", "0.0"]] * 2
        assert out.splitlines()[-1].startswith(
            "max reconstruction error = 0.000e+00 (PASS")


@pytest.mark.parametrize("name, problem", [
    ("heat-dirichlet", "order = 2\na = 1,0\nbc = 1,0\n"),
    ("reverse-lkdv", "order = 3\na = 0,1\nbc = 1,0,0\nbc = 0,1,0\n")],
    ids=["heat-dirichlet", "reverse-lkdv"])
def test_problem_file_writes_the_csv_of_its_builtin(tmp_path, name, problem):
    """A file holding only order, a and bc gets its builtin's maximal
    datum: reconstruct and solve write the CSV of the matching --builtin."""
    cfg = tmp_path / "problem.cfg"
    cfg.write_text(problem, encoding="utf-8")
    for cmd, grid in (("reconstruct", ["--xs", "0.2,0.5"]),
                      ("solve", ["--xs", "0.2,0.5", "--ts", "0,0.1"])):
        texts = []
        for source in (["--builtin", name], ["--problem", str(cfg)]):
            out = tmp_path / f"{cmd}{len(texts)}"
            assert run([cmd, *source, *grid, "--out", str(out)]) == 0
            texts.append((out / f"{cmd}.csv").read_text(encoding="utf-8"))
        assert texts[0] == texts[1]


def test_seed_override_changes_datum(capsys):
    """--seed picks different random bumps, changing the sampled datum."""
    assert run(["reconstruct", "--builtin", "heat-dirichlet",
                "--xs", "0.5", "--seed", "1"]) == 0
    f1 = float(_csv_rows(capsys.readouterr().out, 5)[1][1])
    assert run(["reconstruct", "--builtin", "heat-dirichlet",
                "--xs", "0.5", "--seed", "2"]) == 0
    f2 = float(_csv_rows(capsys.readouterr().out, 5)[1][1])
    assert f1 != f2


def test_seed_override_keeps_the_config_datum(tmp_path, capsys):
    """``--problem cfg --seed 5`` writes the CSV of the same config with
    ``datum.seed = 5``: kernel and support still come from the config."""
    problem = ("order = 2\na = 1,0\nbc = 1,0\ndatum.kernel = 0,0.5\n"
               "datum.support = 0.8\n")
    texts = []
    for seed, flag in (("2", ["--seed", "5"]), ("5", [])):
        cfg = tmp_path / f"seed{seed}.cfg"
        cfg.write_text(problem + f"datum.seed = {seed}\n", encoding="utf-8")
        out = tmp_path / f"out{seed}"
        assert run(["reconstruct", "--problem", str(cfg), "--xs", "0.3,0.7",
                    "--out", str(out)] + flag) == 0
        texts.append((out / "reconstruct.csv").read_text(encoding="utf-8"))
    capsys.readouterr()
    assert texts[0] == texts[1]
    p = HalfLineProblem(2, 1.0, [[1.0, 0.0]])
    f = make_datum(p, (0.0, 0.5), support=0.8, seed=5).value(np.array([0.3, 0.7]))
    assert [float(row[1]) for row in _csv_rows(texts[0], 5)[1:]] == list(f)


def test_config_file_end_to_end(tmp_path, capsys):
    """--problem reads a config file; grids come from solve.xs/solve.ts."""
    cfg = tmp_path / "heat.cfg"
    cfg.write_text(
        "order = 2\n"
        "a = 1,0\n"
        "bc = 1, 0\n"
        "label = cfg-heat\n"
        "datum.kernel = 0,1\n"
        "datum.seed = 3\n"
        "solve.xs = 0.4, 0.9\n"
        "solve.ts = 0:0.1:0.1\n",
        encoding="utf-8")
    assert run(["solve", "--problem", str(cfg)]) == 0
    rows = _csv_rows(capsys.readouterr().out, 4)
    assert rows[0] == ["x", "t", "re_q", "im_q"]
    assert len(rows) == 1 + 4
    # the t=0 row reproduces the datum, which is nonzero inside the support
    q00 = complex(float(rows[1][2]), float(rows[1][3]))
    assert abs(q00.imag) < 1e-9 and abs(q00) > 1e-3


def test_bad_config_file(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("order = 2\nbogus = 1\n", encoding="utf-8")
    assert run(["solve", "--problem", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error: line 2: unknown key 'bogus'" in err


def test_solve_rejects_boundary_point(capsys):
    """x = 0 is outside the open half-line; the error maps to exit code 3."""
    assert run(["solve", "--builtin", "heat-dirichlet",
                "--xs", "0,0.5", "--ts", "0.1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: NonpositiveX:")


@pytest.mark.parametrize("grid", [["--xs", "0.5", "--ts", "nan"],
                                  ["--xs", "0.5", "--ts", "0.1,-1"],
                                  ["--xs", "inf", "--ts", "0.1"]],
                         ids=["nan-time", "negative-time", "infinite-x"])
def test_solve_rejects_a_nonfinite_or_negative_grid(capsys, grid):
    """A NaN or negative time and an infinite x are config errors: exit
    code 2 with one line, before any solve."""
    assert run(["solve", "--builtin", "heat-dirichlet", *grid]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: ")


def test_module_entry_point_runs_the_verifier():
    """``python -m halfline.cli`` runs the command line, so a script that
    calls the verifier that way reads its verdict and exit status."""
    env = dict(os.environ, PYTHONPATH=str(Path(halfline.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "halfline.cli", "verify", "--builtin",
         "heat-dirichlet"], env=env, capture_output=True, text=True,
        timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == (
        "verify heat-dirichlet: all checks passed")


def test_spectral_check_smoke(capsys, get_pair, get_datum):
    """spectral-check passes for the dissipative baseline and emits verdicts;
    its remainder rows are the deviations of the library's report."""
    assert run(["spectral-check", "--builtin", "heat-dirichlet"]) == 0
    out = capsys.readouterr().out
    rows = _csv_rows(out, 5)
    assert rows[0] == ["k", "x", "type", "residual", "verdict"]
    data = rows[1:]
    # remainder k=0..1, type-I k=1 at 3 points, type-II k=0..1 at 3 points,
    # representation at verify's 20 points
    assert len(data) == 2 + 3 + 6 + 20
    assert {r[2] for r in data} == {"remainder", "I", "II", "representation"}
    assert all(r[4] == "PASS" for r in data)
    assert out.splitlines()[-1] == "all spectral checks passed (31 rows)"
    rep = remainder_report(get_pair("heat-dirichlet"), get_datum("heat-dirichlet"))
    assert [float(r[3]) for r in data if r[2] == "remainder"] == list(rep.devs)


def _type_rows(pair, datum):
    """The library's (k, x, type, residual) rows of the remainder and the
    type checks of one datum, at spectral-check's three points."""
    xs = np.array([0.3, 0.7, 1.2])
    rows = [(k, None, "remainder", dev)
            for k, dev in enumerate(remainder_report(pair, datum).devs)]
    for k in range(1, pair.N + 1):
        r1 = check_type_I(pair, datum, k, xs)
        rows += ([(k, None, "I", r1.drift)] if r1.values is None
                 else [(k, x, "I", v) for x, v in zip(xs, r1.values)])
    rows += [(k, x, "II", v) for k in range(pair.N + 1)
             for x, v in zip(xs, check_type_II(pair, datum, k, xs).residuals)]
    return [(str(k), "" if x is None else repr(float(x)), kind, float(v))
            for k, x, kind, v in rows]


def test_spectral_check_reads_the_config_datum(capsys, tmp_path, catalog):
    """The rows are those of the config's datum, a bump-only one of seed 3,
    and not those of verify's maximal datum: the remainder and type rows
    equal the library's reports for ``cfg.build_datum()`` and differ from
    the maximal datum's, and the representation rows are that datum's
    alone at verify's 20 points."""
    text = "order = 3\na = 0,-1\nbc = 1,0,0\ndatum.kernel = 0\ndatum.seed = 3\n"
    path = tmp_path / "bump.cfg"
    path.write_text(text, encoding="utf-8")
    cfg = parse_config(text)
    datum = cfg.build_datum()
    pair = TransformPair(cfg.build_problem())
    assert run(["spectral-check", "--problem", str(path)]) == 0
    rows = _csv_rows(capsys.readouterr().out, 5)[1:]
    got = [(k, x, kind, float(v)) for k, x, kind, v, _ in rows
           if kind != "representation"]
    assert got == _type_rows(pair, datum)
    assert got != _type_rows(pair, data_trio(catalog["lkdv-dirichlet"])[0])
    xs = np.linspace(0.05, 1.0, 20)
    parts = pair.components(DataStack([datum]), xs, represent=True)
    want = np.abs(sum(part[1] for part in parts) - datum.value(xs))[0]
    assert [(x, float(v)) for _, x, kind, v, _ in rows
            if kind == "representation"] == [
        (repr(float(x)), float(v)) for x, v in zip(xs, want)]


def test_a_degree_n_remainder_term_fails_both_runners(monkeypatch, capsys,
                                                      catalog):
    """The remainder mutant of the spectral tests, 1e-12 lam^n added to
    component 1, patched on the class so that the pair each runner builds
    carries it: verify's remainder line fails, and spectral-check exits 1
    with one FAIL line, naming the remainder of k = 1."""
    remainder = TransformPair.remainder

    def spurious(self, datum, k, lam):
        vals = remainder(self, datum, k, lam)
        return vals + 1e-12 * lam ** self.n if k == 1 else vals

    monkeypatch.setattr(TransformPair, "remainder", spurious)
    results = verify_problem(catalog["robin-4"])
    assert [r.name for r in results if not r.passed] == ["remainder"]
    line = next(r.line() for r in results if r.name == "remainder")
    assert line.startswith("FAIL  remainder ")
    assert run(["spectral-check", "--builtin", "robin-4"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith("FAIL")] == [
        "FAIL remainder k=1"]
    bad = [r for r in _csv_rows("\n".join(out), 5) if r[4] == "FAIL"]
    assert [(r[0], r[2]) for r in bad] == [("1", "remainder")]


def test_spectral_check_reports_one_divergent_row_per_scanned_component(
        capsys):
    """reverse-lkdv's two sector components both have a real-axis ray and
    a nonzero remainder: each gives one DIVERGENT type-I row, with no x,
    and the command passes."""
    assert run(["spectral-check", "--builtin", "reverse-lkdv"]) == 0
    rows = [r for r in _csv_rows(capsys.readouterr().out, 5) if r[2] == "I"]
    assert [(k, x, verdict) for k, x, _, _, verdict in rows] == [
        ("1", "", "DIVERGENT"), ("2", "", "DIVERGENT")]
    assert min(float(r[3]) for r in rows) >= 0.1


def test_spectral_check_has_no_tolerance_option(capsys):
    """The tolerances are verify's own: spectral-check takes no --tol."""
    with pytest.raises(SystemExit) as exc:
        run(["spectral-check", "--builtin", "heat-dirichlet", "--tol", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_spectral_check_reports_a_scanned_component_that_diverges(
        capsys, tmp_path):
    """Schroedinger, Dirichlet, with the file's default (maximal) datum:
    the remainder is a constant, whose integral along the real-axis ray
    keeps turning with the truncation radius while its modulus stays put.
    The scan of the complex integral reads that drift, and the CLI prints
    it as the component's one type-I row."""
    cfg = tmp_path / "schroedinger.cfg"
    cfg.write_text("order = 2\na = 0,1\nbc = 1,0\n", encoding="utf-8")
    assert run(["spectral-check", "--problem", str(cfg)]) == 0
    rows = [r for r in _csv_rows(capsys.readouterr().out, 5) if r[2] == "I"]
    assert len(rows) == 1
    k, x, _, drift, verdict = rows[0]
    assert (k, x) == ("1", "") and float(drift) >= 0.1
    assert verdict == "DIVERGENT"


def test_verify_smoke(capsys):
    """verify runs every check on heat-dirichlet and reports PASS lines."""
    assert run(["verify", "--builtin", "heat-dirichlet"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "verify heat-dirichlet: all checks passed"
    checks = lines[:-1]
    assert len(checks) == 11
    for line in checks:
        assert line.startswith("PASS  ")
        assert "value=" in line and "tol=" in line
    names = [line.split()[1] for line in checks]
    for needed in ("reconstruction", "sector-vanishing", "type-I", "type-II",
                   "representation", "evolution-residual", "cofactor-identity",
                   "heat-oracle"):
        assert needed in names


def test_verify_complex_datum_kernel_is_rc3(tmp_path, capsys):
    """verify on a complex-B config whose maximal kernel is complex exits
    with code 3 and one error line naming the error, no traceback."""
    cfg = tmp_path / "complex.cfg"
    cfg.write_text("order = 2\na = 1,0\nallow_complex = true\n"
                   "bc = 1, 0.5+0.5j\n", encoding="utf-8")
    assert run(["verify", "--problem", str(cfg)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith("error: ComplexCoefficientsDisallowed: ")
