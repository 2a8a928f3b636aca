"""Polynomial remainders of the transform pair and their contour integrals."""

import importlib
import pkgutil

import mpmath
import numpy as np
import pytest

import halfline
from halfline.cli import run
from halfline.datum import DataStack, InitialDatum, make_datum
from halfline.errors import NonpositiveX
from halfline.problems import HalfLineProblem, classify, validate
from halfline.spectral import (
    check_type_I,
    check_type_II,
    remainder_polynomial,
    remainder_report,
    spectral_representation_check,
)
from halfline.transforms import TransformPair
from halfline.verify import all_passed, data_trio, verify_problem

from conftest import derivative_transform, on_stack_rule

XS = np.array([0.3, 0.7, 1.2])


_E = np.eye
# out-of-catalog problems of orders 2 to 7 as (n, a, B); the last has
# complex boundary coefficients
_REMAINDER_PROBLEMS = {
    "heat-robin": (2, 1.0, [[2.0, 1.0]]),
    "rotated-heat-dirichlet": (2, np.exp(0.3j), [[1.0, 0.0]]),
    "rotated-heat-neumann": (2, np.exp(0.3j), [[0.0, 1.0]]),
    "schroedinger-dirichlet": (2, 1j, [[1.0, 0.0]]),
    "schroedinger-neumann": (2, 1j, [[0.0, 1.0]]),
    "order-3-a=i": (3, 1j, [[1.0, 0.1, 0.3], [0.0, 1.0, 3.0]]),
    "order-3-a=-i": (3, -1j, [[1.0, 2.0, 0.0]]),
    "order-4-e1e3": (4, 1.0, _E(4)[[0, 2]]),
    "order-4-e1e2": (4, 1.0, _E(4)[[0, 1]]),
    "order-5-a=-i": (5, -1j, _E(5)[:2]),
    "order-5-a=i": (5, 1j, _E(5)[:3]),
    "order-6-a=1": (6, 1.0, _E(6)[:3]),
    "order-6-a=i": (6, 1j, _E(6)[:3]),
    "order-6-e1e3e5": (6, 1.0, _E(6)[[0, 2, 4]]),
    "order-7-a=-i": (7, -1j, _E(7)[:3]),
    "order-7-a=i": (7, 1j, _E(7)[:4]),
    "complex-b-order-3": (3, 1j, [[1.0, 0.0, 0.0], [0.0, 1j, 2j]]),
}


@pytest.mark.parametrize("name", ["lkdv-dirichlet", "reverse-lkdv",
                                  "heat-dirichlet", "heat-neumann", "robin-4",
                                  *_REMAINDER_PROBLEMS])
def test_remainder_matches_the_closed_form(get_pair, get_datum, name):
    """F_k[Sf] - lam^n F_k[f] of every component is the closed-form
    polynomial of degree < n within 1e-12 of its scale, for verify's
    maximal datum: measured at most 2.9e-15 (order 7)."""
    if name in _REMAINDER_PROBLEMS:
        n, a, B = _REMAINDER_PROBLEMS[name]
        problem = validate(HalfLineProblem(n, a, np.array(B), label=name,
                                           allow_complex=True))
        pair = TransformPair(problem)
        datum = make_datum(problem, problem.datum_kernel, seed=0)
    else:
        pair, datum = get_pair(name), get_datum(name)
    report = remainder_report(pair, datum)
    assert report.closed_form.shape == (pair.n,)
    assert len(report.devs) == pair.N + 1
    assert report.passed and max(report.devs) <= 1e-12, report.devs


def test_remainder_closed_form_on_real_line(get_pair, get_datum):
    """The k = 0 remainder equals the boundary-jet closed form."""
    for name in ("lkdv-dirichlet", "robin-4"):
        pair = get_pair(name)
        report = remainder_report(pair, get_datum(name))
        assert report.tol == 1e-12
        assert report.devs[0] <= report.tol, name


@pytest.mark.parametrize("name", ["robin-4", "lkdv-dirichlet"])
def test_remainder_report_catches_a_flipped_sector_sign(get_pair, get_datum,
                                                        monkeypatch, name):
    """Negating the k = 1 kernel weights negates F_1 and its remainder: the
    coefficient magnitudes stay, but the complex comparison reads twice
    the closed form's scale."""
    pair = get_pair(name)
    weights = pair.kernel_weights

    def flipped(k, lam):
        mults, w = weights(k, lam)
        return mults, (-w if k == 1 else w)

    monkeypatch.setattr(pair, "kernel_weights", flipped)
    report = remainder_report(pair, get_datum(name))
    assert not report.passed
    assert report.devs[1] == pytest.approx(2.0, rel=1e-6)
    assert max(report.devs[:1] + report.devs[2:]) <= report.tol


@pytest.mark.parametrize("name, dev", [("robin-4", 4.1e-11),
                                       ("lkdv-dirichlet", 3.1e-11)],
                         ids=["robin-4", "lkdv-dirichlet"])
def test_remainder_report_catches_a_degree_n_term(get_pair, get_datum,
                                                  monkeypatch, name, dev):
    """A term 1e-12 lam^n added to the k = 1 remainder breaks the degree
    bound: on the circle |lam| = R + 1.5 it reads 3e-11 to 4e-11 of the
    closed form's scale, above the 1e-12 tolerance, while the other
    components pass."""
    pair = get_pair(name)
    remainder = pair.remainder
    c = 1e-12

    def spurious(datum, k, lam):
        vals = remainder(datum, k, lam)
        return vals + c * lam ** pair.n if k == 1 else vals

    monkeypatch.setattr(pair, "remainder", spurious)
    report = remainder_report(pair, get_datum(name))
    assert not report.passed
    assert report.devs[1] == pytest.approx(dev, rel=0.02)
    assert max(report.devs[:1] + report.devs[2:]) <= report.tol


def test_reverse_problem_remainder_is_constant(get_pair, get_datum):
    """With f(0) = f'(0) = 0 and f''(0) = 1, the remainder reduces to the
    single constant of magnitude |f''(0)| / 2 pi, which every component's
    remainder equals on the circle."""
    pair = get_pair("reverse-lkdv")
    datum = get_datum("reverse-lkdv")
    closed = remainder_polynomial(pair, datum)
    f2 = datum.boundary_derivatives(3)[2]
    assert abs(closed[0]) == pytest.approx(abs(f2) / (2.0 * np.pi), rel=1e-12)
    np.testing.assert_allclose(closed[1:], 0.0, atol=1e-14)
    lams = (pair.R + 1.5) * np.exp(1j * np.linspace(0.0, 6.0, 7))
    for k in range(pair.N + 1):
        np.testing.assert_allclose(pair.remainder(datum, k, lams), closed[0],
                                   rtol=1e-12)


def test_bump_datum_has_zero_remainder(get_pair, catalog):
    """A datum vanishing to all orders at the origin leaves no remainder:
    the closed form and every component's remainder are exactly zero."""
    pair = get_pair("heat-dirichlet")
    datum = make_datum(catalog["heat-dirichlet"], (), seed=4)
    assert not remainder_polynomial(pair, datum).any()
    report = remainder_report(pair, datum)
    assert report.devs == (0.0,) * (pair.N + 1)


def test_sine_combination_is_degenerate_for_dirichlet(get_datum):
    """With f(0) = 0 the odd (sine) combination of the order-2 transform
    turns the applied operator into exact multiplication by lam^2: the
    f'(0) boundary term cancels between +lam and -lam, so the sine kernel
    is a genuine generalized eigenfunction with zero remainder.  The even
    (cosine) combination keeps the boundary term, exposing f'(0)."""
    datum = get_datum("heat-dirichlet")
    lam = np.linspace(0.37, 9.1, 7)
    plus = datum.fhat(lam)
    minus = datum.fhat(-lam)
    # transforms of Sf = (-i d/dx)^2 f, by the tests' own quadrature of f''
    second = derivative_transform(datum, 2)
    ap = (-1j) ** 2 * second(lam)
    am = (-1j) ** 2 * second(-lam)

    sine = (minus - plus) / 2j
    sine_applied = (am - ap) / 2j
    scale = float(np.abs(sine_applied).max())
    np.testing.assert_allclose(sine_applied, lam ** 2 * sine,
                               atol=1e-10 * scale)

    cosine_gap = (ap + am) / 2 - lam ** 2 * (plus + minus) / 2
    np.testing.assert_allclose(cosine_gap, datum.derivative(1, 0.0),
                               atol=1e-10 * scale)


def test_expected_type_I_table(get_pair, get_datum):
    """Sector integrals of the remainder vanish exactly when no ray lies on
    the real axis: on no component of the reversed third-order problem and
    on every component of the others."""
    want = {"lkdv-dirichlet": True, "reverse-lkdv": False,
            "heat-dirichlet": True, "heat-neumann": True, "robin-4": True}
    for name, expected in want.items():
        pair = get_pair(name)
        for k in range(1, pair.N + 1):
            rep = check_type_I(pair, get_datum(name), k, XS)
            assert rep.expected == expected, (name, k)


def test_type_I_vanishing_components(get_pair, get_datum):
    """Off-axis components integrate the remainder to zero."""
    for name, ks in (("lkdv-dirichlet", (1,)), ("heat-dirichlet", (1,)),
                     ("heat-neumann", (1,)), ("robin-4", (1, 2))):
        pair = get_pair(name)
        datum = get_datum(name)
        for k in ks:
            rep = check_type_I(pair, datum, k, XS)
            assert rep.passed and rep.expected and not rep.divergent, (name, k)
            assert rep.values.max() < 1e-6


def test_type_I_divergent_components(get_pair, get_datum):
    """Real-axis rays make the remainder integral diverge, and the
    truncation scan detects it."""
    pair = get_pair("reverse-lkdv")
    datum = get_datum("reverse-lkdv")
    for k in (1, 2):
        rep = check_type_I(pair, datum, k, XS)
        assert rep.passed and rep.divergent and not rep.expected
        assert rep.values is None
        assert len(rep.scan) == 3
        # the complex integral keeps turning with the truncation radius
        # while its largest modulus barely moves
        assert rep.drift >= 0.1
        assert np.abs(np.diff(rep.scan)).max() <= rep.drift


def test_type_I_zero_remainder_converges_on_real_axis_rays(get_pair, catalog):
    """A pure-bump datum has no remainder, so even reverse-lkdv's
    components with real-axis rays integrate it to zero: expected
    convergent, not divergent, and passed."""
    pair = get_pair("reverse-lkdv")
    datum = make_datum(catalog["reverse-lkdv"], (), seed=0)
    for k in (1, 2):
        rep = check_type_I(pair, datum, k, XS)
        assert rep.expected and not rep.divergent and rep.passed, k
        assert rep.values.max() < 1e-6


@pytest.mark.parametrize("n, want", [(4, (False, True)),
                                     (5, (False, True, False))])
def test_type_I_expectation_is_per_component(n, want):
    """With a = i and the first N unit rows as boundary forms, component 2
    keeps both rays off the real axis and converges while its neighbours
    diverge: each component is held to its own expectation."""
    count = classify(n, 1j).count
    problem = validate(HalfLineProblem(n, 1j, np.eye(n)[:count]))
    pair = TransformPair(problem)
    datum = make_datum(problem, (0.0,) * count + (1.0,) * (n - count), seed=0)
    reports = [check_type_I(pair, datum, k, XS) for k in range(1, count + 1)]
    assert tuple(rep.expected for rep in reports) == want
    for rep in reports:
        assert rep.passed, rep
        assert rep.divergent != rep.expected


def test_type_I_guards(get_pair, get_datum):
    pair = get_pair("heat-dirichlet")
    datum = get_datum("heat-dirichlet")
    with pytest.raises(ValueError):
        check_type_I(pair, datum, 2, XS)
    with pytest.raises(NonpositiveX):
        check_type_I(pair, datum, 1, np.array([0.0, 0.5]))
    for bad in (np.nan, np.inf):
        with pytest.raises(NonpositiveX, match="finite x > 0"):
            check_type_I(pair, datum, 1, np.array([0.5, bad]))


def test_type_checks_integrate_the_closed_form_without_a_fit(
        get_pair, get_datum, monkeypatch):
    """The remainder report and the type-I and type-II integrals read the
    boundary jet alone: with fhat made to raise, the report still passes,
    both type checks still pass, reverse-lkdv's real-axis components still
    diverge, and the k = 0 and sector components alike still vanish."""
    def forbidden(*args, **kwargs):
        raise AssertionError("a remainder or type check evaluated fhat")

    monkeypatch.setattr(InitialDatum, "fhat", forbidden)
    for name in ("lkdv-dirichlet", "reverse-lkdv", "robin-4"):
        pair = get_pair(name)
        datum = get_datum(name)
        assert remainder_report(pair, datum).passed, name
        for k in range(1, pair.N + 1):
            rep = check_type_I(pair, datum, k, XS)
            assert rep.passed, (name, k)
            if name == "reverse-lkdv":
                assert rep.divergent and rep.drift >= 0.1, k
        for k in range(pair.N + 1):
            assert check_type_II(pair, datum, k, XS).passed, (name, k)


def test_type_II_guards(get_pair, get_datum):
    """Component indices run over 0..N: k = -1 would integrate the
    second-to-last sector's contour, so it raises, as does k = N + 1."""
    pair = get_pair("reverse-lkdv")
    datum = get_datum("reverse-lkdv")
    for k in (-1, pair.N + 1):
        with pytest.raises(ValueError, match="component index"):
            check_type_II(pair, datum, k, XS)
    with pytest.raises(NonpositiveX):
        check_type_II(pair, datum, 0, np.array([0.0, 0.5]))
    for bad in (np.nan, np.inf):
        with pytest.raises(NonpositiveX, match="finite x > 0"):
            check_type_II(pair, datum, 0, np.array([0.5, bad]))
        with pytest.raises(NonpositiveX, match="finite x > 0"):
            spectral_representation_check(pair, datum, np.array([bad]))


def test_type_II_vanishes_everywhere(get_pair, get_datum):
    """Dividing by lam^n tames the growth: every component integrates the
    remainder to zero, including those with real-axis rays."""
    for name in ("lkdv-dirichlet", "reverse-lkdv", "heat-neumann"):
        pair = get_pair(name)
        datum = get_datum(name)
        for k in range(pair.N + 1):
            rep = check_type_II(pair, datum, k, XS)
            assert rep.passed, (name, k)
            assert rep.residuals.max() < 1e-6


def test_representation_identity(get_pair, get_datum):
    """Inverting lam^(-n) F[Sf] over all components reproduces the
    inversion of F[f]."""
    pair = get_pair("heat-dirichlet")
    datum = get_datum("heat-dirichlet")
    rep = spectral_representation_check(pair, datum, np.array([0.4, 0.9]))
    assert rep.passed
    assert rep.max_diff < 1e-6


_CATALOG = ("lkdv-dirichlet", "reverse-lkdv", "heat-dirichlet",
            "heat-neumann", "robin-4")


@pytest.mark.parametrize("name", _CATALOG)
def test_stacked_representation_rows_match_each_datum(get_pair, catalog,
                                                       name):
    """The stacked components' representation rows of a catalog trio agree
    with spectral_representation_check of each datum alone, held to the
    stack's rule, within 1e-13: a stack only runs the tail scan or a ray on
    past where the datum's own stopped, by terms below abs_tol / 8
    (measured at most 4.6e-16).  The check of the stack returns those rows
    and the largest difference over them; the inversion rows of the same
    call keep the plain inversion's real-line piece bit for bit."""
    pair = get_pair(name)
    trio = data_trio(catalog[name], 0)
    stack = DataStack(trio)
    xs = np.linspace(0.05, 1.0, 20)
    parts = pair.components(stack, xs, represent=True)
    assert [p.shape for p in parts] == [(2, 3, 20)] * (pair.N + 1)
    np.testing.assert_array_equal(parts[0][0], pair.components(stack, xs)[0])
    rows = sum(part[1] for part in parts)
    report = spectral_representation_check(pair, stack, xs)
    np.testing.assert_array_equal(report.lhs, rows)
    np.testing.assert_array_equal(report.rhs, stack.value(xs))
    assert report.max_diff == float(np.abs(rows - stack.value(xs)).max())
    assert report.passed
    worst = 0.0
    for row, datum in enumerate(trio):
        alone = spectral_representation_check(
            pair, on_stack_rule(datum, stack), xs)
        assert alone.lhs.shape == (20,)
        worst = max(worst, float(np.abs(rows[row] - alone.lhs).max()))
    print(f"{name}: stacked representation rows within {worst:.2e} "
          f"of single checks")
    assert worst <= 1e-13


@pytest.mark.parametrize("name", ["heat-dirichlet", "robin-4"])
def test_representation_restores_the_power_past_the_jet(get_pair, catalog,
                                                        name):
    """A datum with f(n)(0) = 1 gives F_0[f] a lam^-(n+1) term that
    lam^(-n) F_0[Sf] keeps: the representation restores that power on its
    own and still reproduces f, as the inversion does, to 1e-9 (measured
    4.2e-11 and 3.7e-11), alone and in a stack with a datum that lacks
    it."""
    pair = get_pair(name)
    n = pair.n
    jet = InitialDatum(tuple([0.0] * n + [1.0]), seed=3)
    plain = make_datum(catalog[name], (), seed=3)
    xs = np.linspace(0.05, 1.0, 20)
    for datum in (jet, DataStack([jet, plain])):
        parts = pair.components(datum, xs, represent=True)
        errs = np.abs(sum(parts) - datum.value(xs)).max(axis=-1)
        print(f"{name}: inversion {errs[0].max():.2e}, "
              f"representation {errs[1].max():.2e}")
        assert errs.max() <= 1e-9


def test_no_library_path_calls_mpmath(catalog, monkeypatch, capsys):
    """reverse-lkdv has real-axis sector rays, yet its verification and
    spectral checks never call mpmath: with every binding of
    ray_monomial_tail, and mpmath's exponential integral, made to raise,
    verify_problem and ``halfline spectral-check`` still pass."""
    def forbidden(*args, **kwargs):
        raise AssertionError("a library path called mpmath")

    monkeypatch.setattr(mpmath, "expint", forbidden)
    for info in pkgutil.iter_modules(halfline.__path__):
        module = importlib.import_module(f"halfline.{info.name}")
        if hasattr(module, "ray_monomial_tail"):
            monkeypatch.setattr(module, "ray_monomial_tail", forbidden)
    assert all_passed(verify_problem(catalog["reverse-lkdv"]))
    assert run(["spectral-check", "--builtin", "reverse-lkdv"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith(
        "all spectral checks passed")
