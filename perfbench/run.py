"""Benchmark for the halfline package: one workload per run.

    python3 perfbench/run.py --workload recon --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; halfline is imported from its ``src/``.
Ops run back to back on one caller thread, in whole cycles of the
workload's problem list, until ``--seconds`` of op time have passed (at
least one cycle).  Each op's output is checked after its timed span.  The
last line of stdout is the result as JSON: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def set_up(workload: str, seed: int):
    """Import halfline from the checkout and build the workload's transform
    pairs and first cycle of data; returns (workload, first cycle, seconds)."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import halfline
    if Path(halfline.__file__).resolve().parent != SRC / "halfline":
        raise ImportError(f"halfline imported from {halfline.__file__}, not {SRC}")
    from workloads import WORKLOADS
    wl = WORKLOADS[workload](seed)
    first = wl.cycle()
    return wl, first, time.perf_counter() - start


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter (import included)."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def run_ops(wl, first: list, seconds: float, tracer=None) -> dict:
    """Run whole cycles until ``seconds`` of op time have passed.

    Every cycle repeats the first cycle's inputs, so an output is checked
    against its tolerances once and a repeat only has to reproduce the
    checked output.  An op that raises counts as one failed op; so does an
    output that misses a tolerance or differs from the checked one.  Checks
    run outside the op's span and untraced.
    """
    times = [[] for _ in first]
    cycle_walls = []
    checked = {}
    margins = {"tol": [], "band": []}
    failed = attempted = 0
    cycle = first
    while True:
        wall = 0.0
        for pos, item in enumerate(cycle):
            attempted += 1
            if tracer is not None:
                tracer.op = attempted
            try:
                start = time.perf_counter()
                if tracer is None:
                    out = wl.run(item)
                else:
                    out = tracer.call("op", wl.run, (item,), {})
                took = time.perf_counter() - start
            except Exception:
                traceback.print_exc()
                failed += 1
                continue
            finally:
                if tracer is not None:
                    tracer.op = None
            times[pos].append(took)
            wall += took
            try:
                if pos in checked:
                    ok = wl.same(checked[pos], out)
                else:
                    m, ok = wl.check(item, out)
                    for kind, values in m.items():
                        margins[kind].extend(values)
                    if ok:
                        checked[pos] = out
            except Exception:
                traceback.print_exc()
                ok = False
            failed += not ok
        cycle_walls.append(wall)
        if sum(cycle_walls) >= seconds:
            break
        cycle = wl.cycle()
    return {"op_times": times, "cycle_walls": cycle_walls,
            "margins": margins, "failed": failed, "attempted": attempted}


def git_revision():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(args, wl, res) -> dict:
    import mpmath
    import numpy
    import scipy
    from halfline.util import thread_count
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "ops": res["attempted"],
        "cycles": len(res["cycle_walls"]), "problems": list(wl.problems),
        "cycle_walls": res["cycle_walls"], "op_times": res["op_times"],
        "margins": res["margins"],
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "UTM_THREADS": os.environ.get("UTM_THREADS"),
        "parallel_map_threads": thread_count(),
        "blas_env": {v: os.environ.get(v) for v in BLAS_VARS},
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "mpmath": mpmath.__version__,
        "git": git_revision(),
    }


def end_to_end(res, setup_samples) -> dict:
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (statistics.median(res["cycle_walls"]), "s"),
        "op_p50_s": (statistics.median(statistics.median(t)
                                       for t in res["op_times"] if t), "s"),
        "err_margin_digits": (min(res["margins"]["tol"]), "digits"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("recon", "evolve", "verify"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "halfline" / "__init__.py").is_file():
        print(f"no halfline package under {SRC}", file=sys.stderr)
        return 2
    wl, first, setup0 = set_up(args.workload, args.seed)
    if args.setup_only:
        print(setup0)
        return 0

    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
        try:
            res = run_ops(wl, first, args.seconds, tracer)
        finally:
            tracer.uninstall()
        # the same cycle untraced, for the tracing overhead
        plain = run_ops(wl, wl.cycle(), 0.0)
        metrics = {k: (v, spans.unit(k)) for k, v in
                   spans.layer_metrics(tracer, len(res["cycle_walls"])).items()}
        metrics["trace.overhead_s"] = (statistics.median(res["cycle_walls"])
                                       - plain["cycle_walls"][0], "s")
        out_dir = ROOT / ".bench_trace"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"{args.workload}-{args.seed}.json")
        res["failed"] += plain["failed"]
        res["attempted"] += plain["attempted"]
    else:
        setup = [setup0] + [setup_probe(args.workload, args.seed)
                            for _ in range(SETUP_SAMPLES - 1)]
        res = run_ops(wl, first, args.seconds)
        metrics = end_to_end(res, setup) if res["margins"]["tol"] else {}

    env = environment(args, wl, res)
    print(json.dumps({"environment": env}))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:>7} {name:<44} {value:.6g} {unit}")
    print(f"{args.workload:>7} {'fail_rate':<44} "
          f"{res['failed'] / res['attempted']:.6g} fraction")
    if res["margins"]["band"]:
        print(f"{args.workload:>7} {'band_margin_digits':<44} "
              f"{min(res['margins']['band']):.6g} digits")
    print(json.dumps({
        "correct": res["failed"] == 0 and bool(metrics),
        "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
