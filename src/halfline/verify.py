"""End-to-end verification pipeline for one half-line problem.

Each check mirrors one of the library's certified claims: the transform
pair inverts, the sector integrals vanish at t = 0, the transform remainder
is a boundary polynomial with k-independent magnitudes, the augmented
eigenfunction families have the advertised type-I/type-II behaviour, the
evolution field satisfies the PDE, the boundary forms and the initial
condition, and (for the heat problems) the field matches the classical
sine/cosine transform solutions.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import null_space

from . import oracles, spectral
from .datum import make_datum
from .evolution import solve_grid
from .transforms import TransformPair
from .util import parallel_map

__all__ = ["CheckResult", "data_trio", "extrapolated_boundary_values",
           "verify_problem", "all_passed"]

# tolerances of the certified claims
_TOL_RECON = 1e-6
_TOL_VANISH = 1e-6
_TOL_REMAINDER = 1e-8
_TOL_OVERFIT = 1e-9
_TOL_TYPE = 1e-6
_TOL_RESIDUAL = 1e-3
_TOL_BOUNDARY = 1e-3
_TOL_INITIAL = 1e-6
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


@dataclass(frozen=True)
class CheckResult:
    """One certified claim: its measured value against its tolerance, and
    the seconds ``verify_problem`` spent on it (work shared by several
    checks is charged to the first of them)."""

    name: str
    passed: bool
    value: float
    tol: float
    detail: str = ""
    elapsed: float = 0.0

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        extra = f"  [{self.detail}]" if self.detail else ""
        return (f"{mark}  {self.name:<22} value={self.value:.3e} "
                f"tol={self.tol:.1e} {self.elapsed:7.2f}s{extra}")


def all_passed(results) -> bool:
    return all(r.passed for r in results)


def _maximal_kernel(problem) -> tuple:
    """Boundary coefficients with every admissible derivative nonzero."""
    if problem.datum_kernel:
        return tuple(problem.datum_kernel)
    basis = null_space(np.asarray(problem.boundary_matrix, dtype=complex))
    vec = basis.sum(axis=1)
    if np.abs(vec.imag).max() < 1e-12:
        vec = vec.real
    scale = np.abs(vec).max()
    return tuple(np.asarray(vec / scale).ravel())


def data_trio(problem, seed: int = 0):
    """Maximal-boundary, pure-bump, and mixed data for one problem."""
    kernel = _maximal_kernel(problem)
    mixed = tuple(0.5 * c for c in kernel)
    return (
        make_datum(problem, kernel, seed=seed, label=problem.label + "-max"),
        make_datum(problem, (), seed=seed, label=problem.label + "-bump"),
        make_datum(problem, mixed, seed=seed + 1, label=problem.label + "-mixed"),
    )


def extrapolated_boundary_values(q_grid, problem, ts, h: float) -> np.ndarray:
    """|B_j q(., t)| from one-sided stencils at x = h, 2h, ..., ph.

    Derivatives up to order n-1 at x = 0 are extrapolated from interior
    samples, then combined with the boundary-form coefficients; the grid
    callable is invoked once for all requested times.
    """
    n = problem.order
    p = n + 2
    offsets = np.arange(1, p + 1, dtype=float)
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
    """Sine/cosine oracle matching the problem's boundary form, if any."""
    if problem.order != 2 or abs(problem.a - 1.0) > 0.0:
        return None
    B = np.asarray(problem.boundary_matrix, dtype=complex)
    if B.shape != (1, 2):
        return None
    row = B[0] / np.abs(B[0]).max()
    if abs(row[1]) < 1e-14:
        return oracles.heat_dirichlet_solution
    if abs(row[0]) < 1e-14:
        return oracles.heat_neumann_solution
    return None


def verify_problem(problem, *, seed: int = 0, params=None) -> list[CheckResult]:
    """Run every applicable check; returns one CheckResult per check."""
    out: list[CheckResult] = []
    mark = time.perf_counter()

    def report(*fields):
        """Record a check, charged with the time since the previous one."""
        nonlocal mark
        now = time.perf_counter()
        out.append(CheckResult(*fields, elapsed=now - mark))
        mark = now

    pair = TransformPair(problem, params)
    trio = data_trio(problem, seed)
    L = min(d.support for d in trio)
    xs20 = np.linspace(0.05 * L, L, 20)

    # transform-pair inversion and sector vanishing, three data each
    def recon_err(datum):
        rec = pair.reconstruct(datum, xs20)
        return float(np.abs(rec - datum.value(xs20)).max())

    errs = parallel_map(recon_err, trio)
    report("reconstruction", max(errs) < _TOL_RECON,
           max(errs), _TOL_RECON,
           "max over maximal/bump/mixed data, 20 points")

    vanish = 0.0
    for datum in trio:
        for k in range(1, pair.N + 1):
            vanish = max(vanish, float(pair.gamma_k_vanishing(datum, k, xs20).max()))
    report("sector-vanishing", vanish < _TOL_VANISH,
           vanish, _TOL_VANISH, "all k >= 1")

    # transform remainder: degree bound under over-fitting, magnitude match
    datum = trio[0]
    rep = spectral.remainder_report(pair, datum, tol=_TOL_REMAINDER)
    excess = 0.0
    for k in range(pair.N + 1):
        beta = spectral.remainder_polynomial(pair, datum, k,
                                             degree=problem.order + 1)
        scale = max(float(np.abs(beta).max()), 1e-6)
        excess = max(excess, float(np.abs(beta[problem.order:]).max()) / scale)
    report("remainder-degree", excess < _TOL_OVERFIT,
           excess, _TOL_OVERFIT,
           "excess coefficients, degree n+1 fit")
    dev = max(rep.zero_dev, rep.magnitude_dev)
    report("remainder-magnitude", rep.passed, dev,
           _TOL_REMAINDER, "k = 0 exact, k >= 1 magnitudes")

    # augmented eigenfunction claims
    xs3 = np.array([0.3, 0.7, 1.2])
    type1_ok = True
    type1_val = 0.0
    verdicts = []
    for k in range(1, pair.N + 1):
        r1 = spectral.check_type_I(pair, datum, k, xs3, tol=_TOL_TYPE)
        type1_ok &= r1.passed
        if r1.values is not None:
            type1_val = max(type1_val, float(np.abs(r1.values).max()))
        verdicts.append(f"k={k}:{'DIVERGENT' if r1.divergent else 'CONVERGENT'}")
    report("type-I", type1_ok, type1_val, _TOL_TYPE,
           " ".join(verdicts))

    type2_val = 0.0
    for k in range(pair.N + 1):
        r2 = spectral.check_type_II(pair, datum, k, xs3, tol=_TOL_TYPE)
        type2_val = max(type2_val, float(r2.residuals.max()))
    report("type-II", type2_val < _TOL_TYPE, type2_val,
           _TOL_TYPE, "all contours")

    rr = spectral.spectral_representation_check(pair, datum, xs3, tol=_TOL_TYPE)
    report("representation", rr.passed, rr.max_diff, _TOL_TYPE)

    # evolution: PDE residual, convergence order, boundary forms, datum row
    ts_res, ts_bnd, h, amp = _EVOLUTION.get(problem.order, _EVOLUTION[4])
    evo = datum if amp == 1.0 else make_datum(
        problem, _maximal_kernel(problem), seed=seed,
        label=problem.label + "-evo", amplitude=amp)
    grid = lambda xs, ts: solve_grid(pair, evo, xs, ts).values
    points = [(x, t) for x in (0.3 * L, 0.55 * L, 0.8 * L) for t in ts_res]
    results = parallel_map(
        lambda pt: oracles.fd_residual(grid, problem.order, problem.a,
                                       pt[0], pt[1], h), points)
    worst = max(r.value for r in results)
    report("evolution-residual", worst < _TOL_RESIDUAL,
           worst, _TOL_RESIDUAL,
           f"9 interior points, h={h / 2:g}")
    mid = results[4]
    ratio = mid.meta["coarse"] / max(mid.value, 1e-300)
    ok = _ORDER_BAND[0] <= ratio <= _ORDER_BAND[1]
    report("evolution-order", ok, ratio, _ORDER_BAND[1],
           f"residual ratio at h={h:g} vs {h / 2:g}")

    bvals = extrapolated_boundary_values(grid, problem, ts_bnd, h / 2)
    report("evolution-boundary",
           float(bvals.max()) < _TOL_BOUNDARY,
           float(bvals.max()), _TOL_BOUNDARY,
           f"extrapolated boundary forms at t={ts_bnd}")

    field0 = solve_grid(pair, datum, xs20, np.array([0.0]))
    init = float(np.abs(field0.values[0] - datum.value(xs20)).max())
    report("evolution-initial", init < _TOL_INITIAL,
           init, _TOL_INITIAL, "t=0 row equals datum")

    # characteristic cofactor identity at random lambda
    rng = np.random.default_rng(seed + 7)
    lam = rng.uniform(0.3, 3.0, 20) * np.exp(2j * np.pi * rng.uniform(0, 1, 20))
    cm = pair.cm
    m = cm.m
    resid = 0.0
    delta = cm.delta(lam)
    for j in range(1, m + 1):
        for r in range(1, m + 1):
            acc = np.zeros_like(lam, dtype=complex)
            for l in range(1, m + 1):
                sign = (-1.0) ** ((m - 1) * (l + j))
                acc += sign * cm.cofactor_det(l, j, lam) * cm.entry(l, r, lam)
            target = delta if j == r else 0.0
            resid = max(resid, float(np.abs(acc - target).max()
                                     / np.abs(delta).max()))
    report("cofactor-identity", resid < _TOL_COFACTOR,
           resid, _TOL_COFACTOR, "20 random lambda")

    # classical heat baselines where a sine/cosine oracle applies
    oracle = _heat_oracle(problem)
    if oracle is not None:
        xs = np.array([0.5, 1.0, 1.5])
        ts = np.array([0.01, 0.1, 1.0])
        field = solve_grid(pair, datum, xs, ts)
        ref = oracle(datum, xs, ts)
        diff = float(np.abs(field.values - ref.value).max())
        report("heat-oracle", diff < _TOL_ORACLE, diff, _TOL_ORACLE,
               oracle.__name__)
    return out
