"""Command-line front end.

Subcommands:

    classify        well-posedness count N and admissibility for (n, a)
    contours        CSV of sampled contour points
    delta-roots     CSV of characteristic determinant roots
    reconstruct     CSV of inverse(forward(f)) against f, plus max error
    solve           CSV of the evolved field on an (x, t) grid
    spectral-check  CSV of type-I/type-II/remainder residuals with verdicts
    verify          full per-problem verification suite, PASS/FAIL lines

Problems come from ``--builtin <name>`` or a ``--problem <file>`` config
(see :mod:`halfline.config`).  CSV is RFC-4180 style with a header row and
shortest round-trip float formatting, written to ``--out <dir>`` or stdout.
Exit status is 0 iff every requested check passed.  The environment
variable ``UTM_THREADS`` sets the size of the one worker pool the
evolution runs on, created on its first threaded call and kept for the
process; while its workers run, BLAS is single-threaded.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import spectral
from .config import RunConfig, load_config, parse_grid
from .errors import ConfigError, HalflineError
from .evolution import solve_grid
from .problems import builtin_catalog, classify
from .transforms import TransformPair
from .verify import all_passed, verify_problem

__all__ = ["main", "run"]


def _fmt(x) -> str:
    """Shortest round-trip decimal form of a float."""
    return repr(float(x))


def _write_csv(args, name: str, header, rows) -> None:
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / f"{name}.csv", "w", newline="",
                  encoding="utf-8") as fh:
            w = csv.writer(fh, lineterminator="\r\n")
            w.writerow(header)
            w.writerows(rows)
        print(f"wrote {out_dir / (name + '.csv')}")
    else:
        w = csv.writer(sys.stdout, lineterminator="\r\n")
        w.writerow(header)
        w.writerows(rows)


def _resolve(args):
    """(problem, config-or-None) from --builtin/--problem."""
    cfg = None
    if getattr(args, "problem", None):
        cfg = load_config(args.problem)
        problem = cfg.build_problem()
    elif getattr(args, "builtin", None):
        catalog = builtin_catalog()
        if args.builtin not in catalog:
            raise ConfigError(
                f"unknown builtin {args.builtin!r}; have {', '.join(sorted(catalog))}")
        problem = catalog[args.builtin]
    else:
        raise ConfigError("one of --builtin or --problem is required")
    return problem, cfg


def _pair(problem, cfg) -> TransformPair:
    params = cfg.build_params() if cfg else None
    return TransformPair(problem, params)


def _datum(args, problem, cfg):
    """The config's datum, or the default one; ``--seed`` sets its seed."""
    cfg = cfg or RunConfig()
    if args.seed is not None:
        cfg = replace(cfg, datum_seed=args.seed)
    return cfg.build_datum(problem)


def _grid_arg(args, name: str, cfg, default=None) -> np.ndarray:
    text = getattr(args, name, None)
    if text:
        return parse_grid(text, key=f"--{name}")
    if cfg is not None:
        grid = getattr(cfg, name)
        if grid is not None:
            return grid
    if default is not None:
        return default
    raise ConfigError(f"--{name} (or solve.{name} in the config) is required")


# -- subcommands -----------------------------------------------------------

def _cmd_classify(args) -> int:
    if args.order is not None or args.a is not None:
        if args.order is None or args.a is None:
            raise ConfigError("--order and --a must be given together")
        re_im = parse_grid(args.a, key="--a")
        if re_im.size != 2:
            raise ConfigError("--a takes two values re,im")
        n, a = int(args.order), complex(re_im[0], re_im[1])
    else:
        problem, _ = _resolve(args)
        n, a = problem.order, problem.a
    info = classify(n, a)
    print(f"order = {n}")
    print(f"a = {a.real + 0.0:g},{a.imag + 0.0:g}")  # +0.0 drops negative zero
    print(f"N = {info.count}")
    print(f"admissible = {'yes' if info.admissible else 'no'}")
    if not info.admissible and info.reason:
        print(f"reason = {info.reason}")
    return 0


def _cmd_contours(args) -> int:
    problem, cfg = _resolve(args)
    pair = _pair(problem, cfg)
    cs = pair.contours
    rows = []
    ss = np.linspace(0.0, 1.0, 17)
    named = [("Gamma0", cs.gamma0)]
    named += [(f"Gamma{k}", segs) for k, segs in enumerate(cs.gammas, start=1)]
    for cname, segs in named:
        for si, seg in enumerate(segs):
            if seg.kind == "arc":
                us = seg.a0 + ss * (seg.a1 - seg.a0)
            else:
                hi = seg.r1 if np.isfinite(seg.r1) else seg.r0 + 3.0 * cs.R
                us = seg.r0 + ss * (hi - seg.r0)
            pts = seg.point(us)
            rows += [(cname, si, _fmt(s), _fmt(p.real), _fmt(p.imag))
                     for s, p in zip(ss, pts)]
    _write_csv(args, "contours", ["contour", "segment", "s", "re", "im"], rows)
    return 0


def _cmd_delta_roots(args) -> int:
    problem, cfg = _resolve(args)
    pair = _pair(problem, cfg)
    rows = [(_fmt(r.value.real), _fmt(r.value.imag), r.multiplicity)
            for r in pair.cm.delta_roots]
    _write_csv(args, "delta-roots", ["re", "im", "multiplicity"], rows)
    return 0


def _cmd_reconstruct(args) -> int:
    problem, cfg = _resolve(args)
    pair = _pair(problem, cfg)
    datum = _datum(args, problem, cfg)
    L = datum.support
    xs = _grid_arg(args, "xs", cfg, default=np.linspace(0.05 * L, L, 20))
    rec = pair.reconstruct(datum, xs)
    f = datum.value(xs)
    err = np.abs(rec - f)
    rows = [(_fmt(x), _fmt(fv), _fmt(rv.real), _fmt(rv.imag), _fmt(e))
            for x, fv, rv, e in zip(xs, f, rec, err)]
    _write_csv(args, "reconstruct",
               ["x", "f", "re_recon", "im_recon", "abs_err"], rows)
    worst = float(err.max())
    ok = worst < args.tol
    print(f"max reconstruction error = {worst:.3e} "
          f"({'PASS' if ok else 'FAIL'} at tol {args.tol:g})")
    return 0 if ok else 1


def _cmd_solve(args) -> int:
    problem, cfg = _resolve(args)
    pair = _pair(problem, cfg)
    datum = _datum(args, problem, cfg)
    xs = _grid_arg(args, "xs", cfg)
    ts = _grid_arg(args, "ts", cfg)
    field = solve_grid(pair, datum, xs, ts)
    rows = [(_fmt(x), _fmt(t), _fmt(field.values[i, j].real),
             _fmt(field.values[i, j].imag))
            for i, t in enumerate(ts) for j, x in enumerate(xs)]
    _write_csv(args, "solve", ["x", "t", "re_q", "im_q"], rows)
    print(f"quadrature nodes = {field.nodes}, "
          f"(node, time) pairs applied = {field.applied}, "
          f"complex exponentials = {field.exponentials}", file=sys.stderr)
    return 0


def _cmd_spectral_check(args) -> int:
    problem, cfg = _resolve(args)
    pair = _pair(problem, cfg)
    datum = _datum(args, problem, cfg)
    tol = args.tol
    xs = np.array([0.3, 0.7, 1.2])
    rows = []
    failures = []

    rep = spectral.remainder_report(pair, datum)
    for k, dev in enumerate(rep.devs):
        ok = dev <= rep.tol
        rows.append((k, "", "remainder", _fmt(dev), "PASS" if ok else "FAIL"))
        if not ok:
            failures.append(f"remainder k={k}")

    for k in range(1, pair.N + 1):
        r1 = spectral.check_type_I(pair, datum, k, xs, tol=tol)
        if r1.values is None:
            rows.append((k, "", "I", _fmt(r1.drift),
                         "DIVERGENT" if r1.divergent else "CONVERGENT"))
        else:
            for x, v in zip(xs, r1.values):
                rows.append((k, _fmt(x), "I", _fmt(v),
                             "PASS" if v < tol else "FAIL"))
        if not r1.passed:
            failures.append(f"type-I k={k} (expected "
                            f"{'convergent' if r1.expected else 'divergent'})")

    for k in range(pair.N + 1):
        r2 = spectral.check_type_II(pair, datum, k, xs, tol=tol)
        for x, v in zip(xs, r2.residuals):
            rows.append((k, _fmt(x), "II", _fmt(v),
                         "PASS" if v < tol else "FAIL"))
        if not r2.passed:
            failures.append(f"type-II k={k}")

    rr = spectral.spectral_representation_check(pair, datum, xs, tol=tol)
    for x, v in zip(xs, np.abs(rr.lhs - rr.rhs)):
        rows.append(("", _fmt(x), "representation", _fmt(v),
                     "PASS" if v < tol else "FAIL"))
    if not rr.passed:
        failures.append("representation")

    _write_csv(args, "spectral-check",
               ["k", "x", "type", "residual", "verdict"], rows)
    if failures:
        for f in failures:
            print(f"FAIL {f}")
        return 1
    print(f"all spectral checks passed ({len(rows)} rows)")
    return 0


def _cmd_verify(args) -> int:
    problem, cfg = _resolve(args)
    seed = args.seed if args.seed is not None else 0
    params = cfg.build_params() if cfg else None
    results = verify_problem(problem, seed=seed, params=params)
    for r in results:
        print(r.line())
    ok = all_passed(results)
    bad = [r.name for r in results if not r.passed]
    print(f"verify {problem.label}: "
          + ("all checks passed" if ok else "FAILED " + ", ".join(bad)))
    return 0 if ok else 1


# -- argument wiring ---------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="halfline",
        description="Unified-transform solver and verifier for half-line "
                    "evolution problems.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, tol_default=None):
        p.add_argument("--builtin", help="catalog problem name")
        p.add_argument("--problem", help="problem config file")
        p.add_argument("--out", help="directory for CSV output (default stdout)")
        p.add_argument("--seed", type=int, default=None,
                       help="datum bump seed override")
        if tol_default is not None:
            p.add_argument("--tol", type=float, default=tol_default,
                           help="pass/fail tolerance")

    p = sub.add_parser("classify", help="well-posedness count and admissibility")
    common(p)
    p.add_argument("--order", type=int, default=None, help="spatial order n")
    p.add_argument("--a", default=None, help="dispersion coefficient re,im")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("contours", help="sampled integration contours as CSV")
    common(p)
    p.set_defaults(fn=_cmd_contours)

    p = sub.add_parser("delta-roots",
                       help="characteristic determinant roots as CSV")
    common(p)
    p.set_defaults(fn=_cmd_delta_roots)

    p = sub.add_parser("reconstruct",
                       help="invert the forward transform of the datum")
    common(p, tol_default=1e-6)
    p.add_argument("--xs", help="evaluation points (comma list or start:step:stop)")
    p.set_defaults(fn=_cmd_reconstruct)

    p = sub.add_parser("solve", help="evolve the datum on an (x, t) grid")
    common(p)
    p.add_argument("--xs", help="spatial points (comma list or start:step:stop)")
    p.add_argument("--ts", help="times (comma list or start:step:stop)")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("spectral-check",
                       help="remainder, type-I/II, and representation checks")
    common(p, tol_default=1e-6)
    p.set_defaults(fn=_cmd_spectral_check)

    p = sub.add_parser("verify", help="run the full verification suite")
    common(p)
    p.set_defaults(fn=_cmd_verify)
    return top


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except HalflineError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())
