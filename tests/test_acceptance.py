"""End-to-end acceptance suite for the built-in problem catalog.

Nine checks certify the library's contract tolerances: transform-pair
inversion, sector vanishing, classical heat baselines, PDE/boundary/initial
correctness of the evolved field, remainder-polynomial structure, type-II
and type-I behaviour of the eigenfunction families, characteristic-matrix
algebra, and closed-form sector kernels.  Each test prints one PASS/FAIL
line with the measured value and tolerance (run pytest with -s to see the
lines for passing tests).
"""

import time

import numpy as np

from halfline import oracles, spectral, verify
from halfline.datum import make_datum
from halfline.evolution import solve_grid
from halfline.verify import data_trio, extrapolated_boundary_values

from conftest import inverse_kernel

CATALOG = ("lkdv-dirichlet", "reverse-lkdv", "heat-dirichlet",
           "heat-neumann", "robin-4")

_TRIOS: dict = {}


def _trio(catalog, name):
    if name not in _TRIOS:
        _TRIOS[name] = data_trio(catalog[name], seed=0)
    return _TRIOS[name]


def _xs20(trio):
    L = min(d.support for d in trio)
    return np.linspace(0.05 * L, L, 20)


def _report(name, passed, value, tol, detail=""):
    mark = "PASS" if passed else "FAIL"
    extra = f"  [{detail}]" if detail else ""
    print(f"{mark}  {name:<26} value={value:.3e} tol={tol:.1e}{extra}")


def test_reconstruction_identity(get_pair, catalog):
    """inverse(forward(f)) reproduces f for every catalog problem and three
    data each (maximal boundary jet, pure bump, mixed), 20 points spanning
    the support, within 1e-6 and 60 seconds."""
    t0 = time.perf_counter()
    worst = 0.0
    for name in CATALOG:
        pair = get_pair(name)
        trio = _trio(catalog, name)
        xs = _xs20(trio)
        for d in trio:
            err = np.abs(pair.reconstruct(d, xs) - d.value(xs)).max()
            worst = max(worst, float(err))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed <= 60.0
    _report("reconstruction-identity", ok, worst, 1e-6,
            f"5 problems x 3 data x 20 points in {elapsed:.1f}s")
    assert worst < 1e-6
    assert elapsed <= 60.0


def test_sector_vanishing(get_pair, catalog):
    """The sector contours contribute nothing at t = 0: the integral of
    e^{i lam x} F_k[f] over every Gamma_k is below 1e-6 for the same data
    and points as the reconstruction check."""
    worst = 0.0
    for name in CATALOG:
        pair = get_pair(name)
        trio = _trio(catalog, name)
        xs = _xs20(trio)
        for d in trio:
            for k in range(1, pair.N + 1):
                worst = max(worst, float(np.abs(
                    pair.sector_component(d, k, xs)).max()))
    ok = worst < 1e-6
    _report("sector-vanishing", ok, worst, 1e-6, "all problems, data, k >= 1")
    assert ok


def test_heat_baselines(get_pair, catalog):
    """The evolved order-2 fields match the method-of-images solutions
    (Dirichlet and Neumann) on a 3 x 3 (x, t) grid to 1e-6, one oracle
    call per problem, the two calls within 0.5 seconds."""
    xs = np.array([0.5, 1.0, 1.5])
    ts = np.array([0.01, 0.1, 1.0])
    worst = 0.0
    oracle_s = 0.0
    for name, oracle in (("heat-dirichlet", oracles.heat_dirichlet_solution),
                         ("heat-neumann", oracles.heat_neumann_solution)):
        pair = get_pair(name)
        datum = _trio(catalog, name)[0]
        field = solve_grid(pair, datum, xs, ts)
        t0 = time.perf_counter()
        ref = oracle(datum, xs, ts)
        oracle_s += time.perf_counter() - t0
        worst = max(worst, float(np.abs(field.values - ref.value).max()))
    ok = worst < 1e-6 and oracle_s <= 0.5
    _report("heat-baselines", ok, worst, 1e-6,
            f"images oracles, 3 x 3 (x,t) grid each, in {oracle_s:.2f}s")
    assert worst < 1e-6
    assert oracle_s <= 0.5


def test_evolution_correctness(get_pair, catalog):
    """The evolved field satisfies the PDE at nine interior points (residual
    below 1e-3, shrinking ~4x when the step halves), annihilates the
    boundary forms to 1e-3, and reproduces the datum at t = 0 to 1e-6."""
    worst_res = worst_bnd = worst_init = 0.0
    ratios = []
    for name in ("lkdv-dirichlet", "reverse-lkdv", "robin-4"):
        problem = catalog[name]
        # residual times, boundary-form times, coarse step, datum amplitude
        ts_res, ts_bnd, h, amp = verify._EVOLUTION[problem.order]
        pair = get_pair(name)
        datum = _trio(catalog, name)[0]
        evo = datum if amp == 1.0 else make_datum(
            problem, problem.datum_kernel, seed=0, amplitude=amp)
        grid = lambda xs, ts: solve_grid(pair, evo, xs, ts).values
        L = datum.support
        res = oracles.fd_residual(grid, problem.order, problem.a,
                                  np.array([0.3, 0.55, 0.8]) * L, ts_res, h)
        worst_res = max(worst_res, float(res.value.max()))
        ratios.append(res.meta["coarse"][1, 1] / max(res.value[1, 1], 1e-300))
        bvals = extrapolated_boundary_values(grid, problem, ts_bnd, h / 2)
        worst_bnd = max(worst_bnd, float(bvals.max()))
        xs = _xs20(_trio(catalog, name))
        q0 = solve_grid(pair, datum, xs, np.array([0.0])).values[0]
        worst_init = max(worst_init, float(np.abs(q0 - datum.value(xs)).max()))
    ratio_ok = all(2.5 <= r <= 6.0 for r in ratios)
    ok = (worst_res < 1e-3 and ratio_ok
          and worst_bnd < 1e-3 and worst_init < 1e-6)
    _report("evolution-correctness", ok, worst_res, 1e-3,
            "ratios " + "/".join(f"{r:.1f}" for r in ratios)
            + f", boundary {worst_bnd:.1e}, initial {worst_init:.1e}")
    assert worst_res < 1e-3
    assert ratio_ok, f"step-halving ratios {ratios} outside (2.5, 6.0)"
    assert worst_bnd < 1e-3
    assert worst_init < 1e-6


def test_remainder_structure(get_pair, catalog):
    """Every component's remainder is the closed-form polynomial of degree
    <= n-1 within 1e-12 of its scale, and the two-form order-3 remainder
    is the constant with magnitude |f''(0)| / 2 pi."""
    worst_dev = 0.0
    for name in CATALOG:
        pair = get_pair(name)
        datum = _trio(catalog, name)[0]
        rep = spectral.remainder_report(pair, datum, tol=1e-12)
        worst_dev = max(worst_dev, *rep.devs)

    pair2 = get_pair("reverse-lkdv")
    d2 = _trio(catalog, "reverse-lkdv")[0]
    cf = spectral.remainder_polynomial(pair2, d2)
    target = abs(d2.derivative(2, 0.0)) / (2.0 * np.pi)
    const_dev = max(abs(abs(cf[0]) - target),
                    float(np.abs(cf[1:]).max())) / target

    ok = worst_dev <= 1e-12 and const_dev < 1e-8
    _report("remainder-structure", ok, worst_dev, 1e-12,
            f"constant dev {const_dev:.1e}")
    assert worst_dev <= 1e-12
    assert const_dev < 1e-8


def test_type_ii_certification(get_pair, catalog):
    """Type-II residuals vanish below 1e-6 for every problem and contour at
    x in {0.3, 0.7, 1.2}, and the spectral representation of f agrees with
    f itself to 1e-6."""
    xs = np.array([0.3, 0.7, 1.2])
    worst = worst_rep = 0.0
    for name in CATALOG:
        pair = get_pair(name)
        datum = _trio(catalog, name)[0]
        for k in range(pair.N + 1):
            r2 = spectral.check_type_II(pair, datum, k, xs)
            assert r2.passed, f"{name} component {k}"
            worst = max(worst, float(r2.residuals.max()))
        rr = spectral.spectral_representation_check(pair, datum, xs)
        assert rr.passed, name
        worst_rep = max(worst_rep, rr.max_diff)
    ok = worst < 1e-6 and worst_rep < 1e-6
    _report("type-II-certification", ok, worst, 1e-6,
            f"all contours, representation {worst_rep:.1e}")
    assert ok


def test_type_i_dichotomy(get_pair, catalog):
    """Type-I integrals converge and vanish for the single-form order-3,
    both heat, and order-4 problems, but diverge on both sector contours of
    the two-form order-3 problem."""
    expected_divergent = {"lkdv-dirichlet": False, "reverse-lkdv": True,
                          "heat-dirichlet": False, "heat-neumann": False,
                          "robin-4": False}
    xs = np.array([0.3, 0.7, 1.2])
    worst = 0.0
    verdicts = []
    for name in CATALOG:
        pair = get_pair(name)
        datum = _trio(catalog, name)[0]
        for k in range(1, pair.N + 1):
            r1 = spectral.check_type_I(pair, datum, k, xs)
            assert r1.passed, f"{name} contour {k}"
            assert r1.expected != expected_divergent[name], f"{name} contour {k}"
            assert r1.divergent == expected_divergent[name], f"{name} contour {k}"
            if r1.values is not None:
                worst = max(worst, float(np.abs(r1.values).max()))
            verdicts.append("DIV" if r1.divergent else "ok")
    _report("type-I-dichotomy", True, worst, 1e-6,
            "verdicts " + ",".join(verdicts))
    assert worst < 1e-6


def test_characteristic_algebra(get_pair):
    """The order-4 determinant has a double root at the origin and all roots
    inside |lam| < 4; the cofactor identity holds to 1e-9 relative at 20
    random lambda for every problem."""
    roots = {complex(r.value): r.multiplicity
             for r in get_pair("robin-4").cm.delta_roots}
    assert all(abs(v) < 4.0 for v in roots)
    assert any(abs(v) < 1e-9 and mult == 2 for v, mult in roots.items())

    rng = np.random.default_rng(7)
    worst = 0.0
    for name in CATALOG:
        cm = get_pair(name).cm
        lam = (rng.uniform(0.3, 3.0, 20)
               * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 20)))
        delta = cm.delta(lam)
        resid = cm.cofactors(lam) @ cm.eval_matrix(lam) - (
            delta[:, None, None] * np.eye(cm.m))
        worst = max(worst, float(np.abs(resid).max() / np.abs(delta).max()))
    ok = worst < 1e-9
    _report("characteristic-algebra", ok, worst, 1e-9,
            f"root bound 4, double root at 0, {len(roots)} roots")
    assert ok


def test_kernel_formulas(get_pair):
    """The order-3 sector kernels equal their closed forms at 50 random
    (x, lam): -(1/2pi)(alpha e^{-i alpha lam x} + alpha^2 e^{-i alpha^2 lam x})
    for the single-form problem and (1/2pi) e^{-i alpha^2 lam x},
    (1/2pi) e^{-i alpha lam x} for the two-form problem, to 1e-12."""
    alpha = np.exp(2j * np.pi / 3)
    rng = np.random.default_rng(9)
    lams = (rng.uniform(0.5, 3.0, 50)
            * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 50)))
    xs = rng.uniform(0.1, 2.0, size=50)

    got1 = inverse_kernel(get_pair("lkdv-dirichlet"), 1, lams, xs)
    want1 = -(alpha * np.exp(-1j * alpha * lams * xs)
              + alpha ** 2 * np.exp(-1j * alpha ** 2 * lams * xs)) / (2.0 * np.pi)
    pair2 = get_pair("reverse-lkdv")
    got21 = inverse_kernel(pair2, 1, lams, xs)
    want21 = np.exp(-1j * alpha ** 2 * lams * xs) / (2.0 * np.pi)
    got22 = inverse_kernel(pair2, 2, lams, xs)
    want22 = np.exp(-1j * alpha * lams * xs) / (2.0 * np.pi)

    worst = max(float(np.abs(got1 - want1).max()),
                float(np.abs(got21 - want21).max()),
                float(np.abs(got22 - want22).max()))
    ok = worst < 1e-12
    _report("kernel-formulas", ok, worst, 1e-12, "50 random (x, lam) each")
    assert ok
