"""End-to-end verification pipeline for one half-line problem.

Each check mirrors one of the library's certified claims: the transform
pair inverts (which is the evolution's t = 0 row), the sector integrals
vanish at t = 0, the transform remainder of every component is the same
boundary polynomial, the augmented eigenfunction families have the
advertised type-I/type-II behaviour, the evolution field satisfies the
PDE and the boundary forms, and (for order-2 problems with a Dirichlet or
Neumann condition) the field matches the method-of-images solution.

The first six checks are :func:`spectral_checks`, whose rows ``halfline
spectral-check`` prints for one datum.  Their inversion, sector-vanishing
and representation values come from one pass over the data trio as a
:class:`~halfline.datum.DataStack`; the remainder and type checks take
the first datum's boundary jet alone, and the evolution checks its own
transform.  The evolution checks, the images oracle among them, read one
solver of the first datum (:func:`halfline.evolution.prepare`), whose
packs are built once for the window of every grid they use; where a
check asks for a datum of smaller amplitude, the solution is scaled, as
it is linear in the datum.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import oracles, spectral
from .datum import DataStack, make_datum
from .evolution import prepare
# perfbench/spans.py patches solve_grid at this binding too
from .evolution import solve_grid  # noqa: F401
from .transforms import TransformPair

__all__ = ["CheckResult", "data_trio", "extrapolated_boundary_values",
           "spectral_checks", "verify_problem", "all_passed"]

# tolerances of the certified claims
_TOL_RECON = 1e-6
_TOL_VANISH = 1e-6
_TOL_REMAINDER = 1e-12
_TOL_TYPE = 1e-6
_TOL_RESIDUAL = 1e-3
_TOL_BOUNDARY = 1e-3
_TOL_COFACTOR = 1e-9
_TOL_ORACLE = 1e-6

# per-order evolution settings: residual times, boundary-form times,
# coarse finite-difference step (the reported residual uses the half step,
# the pair gives the convergence-order ratio) and datum amplitude.  Robin
# style boundary forms can trap growing discrete modes (the order-4 catalog
# problem holds one with rate exp(55.4 t)), so order 4 is checked at early
# times with a small-amplitude datum; that keeps the absolute residual in
# the truncation-dominated regime instead of the exp(ct) mode swamping it.
_EVOLUTION = {
    2: ((0.1, 0.2, 0.3), (0.15, 0.3), 2e-3, 1.0),
    3: ((0.1, 0.2, 0.3), (0.15, 0.3), 5e-3, 1.0),
    4: ((0.01, 0.015, 0.02), (0.01, 0.02), 5e-3, 1e-3),
}
_ORDER_BAND = (2.5, 6.0)
# the (xs, ts) grid of the method-of-images check
_ORACLE_GRID = (np.array([0.5, 1.0, 1.5]), np.array([0.01, 0.1, 1.0]))


@dataclass(frozen=True)
class CheckResult:
    """One certified claim: its measured value against its tolerance, and
    the seconds spent on it (work shared by several checks is charged to
    the first of them: ``reconstruction`` carries the one stacked pass,
    its tail scan included, whose rows also give sector-vanishing and
    representation).

    ``rows`` holds (k, x, value, verdict) per row of the last four spectral
    checks, k or x None where a row has none; a verdict is PASS or FAIL, or
    DIVERGENT or CONVERGENT for a type-I scan, which expects divergence."""

    name: str
    passed: bool
    value: float
    tol: float
    detail: str = ""
    elapsed: float = 0.0
    rows: tuple = ()

    def failing(self) -> list:
        """The k of each failing row, once each, in order."""
        return list(dict.fromkeys(k for k, _, _, verdict in self.rows
                                  if verdict in ("FAIL", "CONVERGENT")))

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        extra = f"  [{self.detail}]" if self.detail else ""
        return (f"{mark}  {self.name:<22} value={self.value:.3e} "
                f"tol={self.tol:.1e} {self.elapsed:7.2f}s{extra}")


def all_passed(results) -> bool:
    return all(r.passed for r in results)


def data_trio(problem, seed: int = 0):
    """Maximal-boundary, pure-bump, and mixed data for one problem, from
    its boundary forms and ``seed`` alone: the maximal jet is the problem's
    derived ``datum_kernel``."""
    kernel = problem.datum_kernel
    mixed = tuple(0.5 * c for c in kernel)
    return (
        make_datum(problem, kernel, seed=seed),
        make_datum(problem, (), seed=seed),
        make_datum(problem, mixed, seed=seed + 1),
    )


def _boundary_offsets(n: int) -> np.ndarray:
    """1, 2, ..., n + 2: the points of the one-sided boundary stencils of
    an order-n problem, in steps."""
    return np.arange(1, n + 3, dtype=float)


def extrapolated_boundary_values(q_grid, problem, ts, h: float) -> np.ndarray:
    """|B_j q(., t)| from one-sided stencils at x = h, 2h, ..., ph.

    Derivatives up to order n-1 at x = 0 are extrapolated from interior
    samples, then combined with the boundary-form coefficients; the grid
    callable is invoked once for all requested times.
    """
    n = problem.order
    offsets = _boundary_offsets(n)
    xs = offsets * h
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    vals = np.asarray(q_grid(xs, ts), dtype=complex)
    derivs = np.empty((len(ts), n), dtype=complex)
    for k in range(n):
        c = oracles.stencil_coefficients(k, offsets)
        derivs[:, k] = (vals @ c) / h ** k
    B = np.asarray(problem.boundary_matrix, dtype=complex)
    return np.abs(derivs @ B.T)


def _heat_oracle(problem):
    """Images oracle matching an order-2 problem's boundary form, if any:
    Dirichlet and Neumann have one, Robin has none."""
    if problem.order != 2:
        return None
    row = problem.boundary_matrix[0]  # validated: order 2 has one form
    row = row / np.abs(row).max()
    if abs(row[1]) < 1e-14:
        return oracles.heat_dirichlet_solution
    if abs(row[0]) < 1e-14:
        return oracles.heat_neumann_solution
    return None


def _timed(out: list):
    """report(*fields, rows=()): append a CheckResult timed since the last."""
    mark = time.perf_counter()

    def report(*fields, rows=()):
        nonlocal mark
        now = time.perf_counter()
        out.append(CheckResult(*fields, elapsed=now - mark, rows=tuple(rows)))
        mark = now
    return report


def _rows(k, xs, values) -> list:
    """(k, x, value, verdict) at each x, PASS below the type tolerance."""
    return [(k, x, v, "PASS" if v < _TOL_TYPE else "FAIL")
            for x, v in zip(xs, values)]


def spectral_checks(pair: TransformPair, data) -> list[CheckResult]:
    """The reconstruction, sector-vanishing, remainder, type-I, type-II
    and representation checks of a sequence of data of one support.

    The data are inverted as one :class:`~halfline.datum.DataStack`: one
    ``components`` call with ``represent`` transforms each mu once for
    every datum and both inversions, of F_k[f] and lam^(-n) F_k[Sf], and
    gives the reconstruction, sector-vanishing and representation values
    at the same 20 points.  The remainder and type checks run on the
    first datum's boundary jet."""
    out: list[CheckResult] = []
    report = _timed(out)
    stack = DataStack(data)
    datum = stack.data[0]
    L = stack.support
    xs20 = np.linspace(0.05 * L, L, 20)

    # one evaluation of the components for the stack: diff[0] holds the
    # inversion's error per datum and x, diff[1] the representation's
    parts = pair.components(stack, xs20, represent=True)
    diff = np.abs(sum(parts[1:], parts[0]) - stack.value(xs20))
    errs = diff.max(axis=-1)
    worst = float(errs[0].max())
    report("reconstruction", worst < _TOL_RECON, worst, _TOL_RECON,
           f"max over {len(stack.data)} data, 20 points")

    vanish = max((float(np.abs(sector[0]).max()) for sector in parts[1:]),
                 default=0.0)
    report("sector-vanishing", vanish < _TOL_VANISH,
           vanish, _TOL_VANISH, "all k >= 1")

    rep = spectral.remainder_report(pair, datum, tol=_TOL_REMAINDER)
    report("remainder", rep.passed, max(rep.devs), _TOL_REMAINDER,
           f"every k, {4 * pair.n + 7} points on |lam| = R + 1.5",
           rows=[(k, None, dev, "PASS" if dev <= rep.tol else "FAIL")
                 for k, dev in enumerate(rep.devs)])

    # augmented eigenfunction claims; a type-I truncation scan is one row
    xs3 = np.array([0.3, 0.7, 1.2])
    rows, verdicts, type1_ok = [], [], True
    for k in range(1, pair.N + 1):
        r1 = spectral.check_type_I(pair, datum, k, xs3, tol=_TOL_TYPE)
        type1_ok &= r1.passed
        verdict = "DIVERGENT" if r1.divergent else "CONVERGENT"
        rows += (_rows(k, xs3, r1.values) if r1.values is not None
                 else [(k, None, r1.drift, verdict)])
        verdicts.append(f"k={k}:{verdict}"
                        + (f"(drift={r1.drift:.1e})" if r1.divergent else ""))
    type1_val = max((float(v) for _, x, v, _ in rows if x is not None),
                    default=0.0)
    report("type-I", type1_ok, type1_val, _TOL_TYPE, " ".join(verdicts),
           rows=rows)

    rows = [row for k in range(pair.N + 1) for row in _rows(
        k, xs3, spectral.check_type_II(pair, datum, k, xs3).residuals)]
    type2_val = max(float(row[2]) for row in rows)
    report("type-II", type2_val < _TOL_TYPE, type2_val,
           _TOL_TYPE, "all contours", rows=rows)

    represented = float(errs[1].max())
    report("representation", represented < _TOL_TYPE, represented, _TOL_TYPE,
           f"{len(stack.data)} data, 20 points",
           rows=_rows(None, xs20, diff[1].max(axis=0)))
    return out


def verify_problem(problem, *, seed: int = 0, params=None) -> list[CheckResult]:
    """Run every applicable check, the :func:`spectral_checks` of the data
    trio first; returns one CheckResult per check."""
    pair = TransformPair(problem, params)
    trio = data_trio(problem, seed)
    out = spectral_checks(pair, trio)
    out[0] = replace(out[0],
                     detail="max over maximal/bump/mixed data, 20 points")
    report = _timed(out)
    datum = trio[0]

    # evolution: PDE residual, convergence order, boundary forms and the
    # images oracle, every value from one set of packs of trio[0]
    # built for the window of all their grids; the solution is linear in
    # the datum, so a datum of amplitude amp solves to amp times trio[0]'s
    ts_res, ts_bnd, h, amp = _EVOLUTION.get(problem.order, _EVOLUTION[4])
    xs_res = np.array([0.3, 0.55, 0.8]) * datum.support
    oracle = _heat_oracle(problem)
    grids = [oracles.fd_grid(problem.order, xs_res, ts_res, h),
             (_boundary_offsets(problem.order) * (h / 2), np.array(ts_bnd))]
    if oracle is not None:
        grids.append(_ORACLE_GRID)
    xs_all, ts_all = (np.concatenate(axis) for axis in zip(*grids))
    solve = prepare(pair, datum, (xs_all.min(), xs_all.max()),
                    (ts_all.min(), ts_all.max()))
    grid = lambda xs, ts: amp * solve(xs, ts).values
    res = oracles.fd_residual(grid, problem.order, problem.a, xs_res,
                              ts_res, h)
    worst = float(res.value.max())
    report("evolution-residual", worst < _TOL_RESIDUAL,
           worst, _TOL_RESIDUAL,
           f"9 interior points, h={h / 2:g}")
    ratio = float(res.meta["coarse"][1, 1] / max(res.value[1, 1], 1e-300))
    lo, hi = _ORDER_BAND
    report("evolution-order", lo <= ratio <= hi, ratio, hi,
           f"residual ratio at h={h:g} vs {h / 2:g}, band [{lo}, {hi}]")

    bvals = extrapolated_boundary_values(grid, problem, ts_bnd, h / 2)
    report("evolution-boundary",
           float(bvals.max()) < _TOL_BOUNDARY,
           float(bvals.max()), _TOL_BOUNDARY,
           f"extrapolated boundary forms at t={ts_bnd}")

    # characteristic cofactor identity at random lambda
    rng = np.random.default_rng(seed + 7)
    lam = rng.uniform(0.3, 3.0, 20) * np.exp(2j * np.pi * rng.uniform(0, 1, 20))
    cm = pair.cm
    delta = cm.delta(lam)
    eye = delta[:, None, None] * np.eye(cm.m)
    resid = float(np.abs(cm.cofactors(lam) @ cm.eval_matrix(lam) - eye).max()
                  / np.abs(delta).max())
    report("cofactor-identity", resid < _TOL_COFACTOR,
           resid, _TOL_COFACTOR, "20 random lambda")

    # method-of-images baselines where the boundary form has one
    if oracle is not None:
        xs, ts = _ORACLE_GRID
        ref = oracle(datum, xs, ts, a=problem.a)
        diff = float(np.abs(solve(xs, ts).values - ref.value).max())
        report("heat-oracle", diff < _TOL_ORACLE, diff, _TOL_ORACLE,
               oracle.__name__)
    return out
