"""Forward transforms, inverse kernels, and reconstruction round trips."""

import copy
import dataclasses
import gc
import sys
import threading
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest
from scipy import integrate

from halfline import contours, quadrature, transforms, verify
from halfline.datum import DataStack, InitialDatum, make_datum
from halfline.errors import NonpositiveX, ToleranceNotMet
from halfline.evolution import solve_grid
from halfline.problems import HalfLineProblem, validate
from halfline.quadrature import QuadratureParams, ray_monomial_tail
from halfline.spectral import check_type_II
from halfline.transforms import SupportTransform, TransformPair
from halfline.verify import all_passed, data_trio, verify_problem

from conftest import (adaptive_reference, derivative_transform, inverse_kernel,
                      on_stack_rule)


def _random_lams(rng, count, rmin=0.5, rmax=3.0):
    r = rng.uniform(rmin, rmax, size=count)
    phi = rng.uniform(0.0, 2.0 * np.pi, size=count)
    return r * np.exp(1j * phi)


def test_third_order_single_form_kernel(get_pair):
    """For the order-3 problem with one Dirichlet form and a = -i, the first
    sector kernel collapses to -(1/2pi)(alpha e^{-i alpha lam x}
    + alpha^2 e^{-i alpha^2 lam x})."""
    pair = get_pair("lkdv-dirichlet")
    alpha = np.exp(2j * np.pi / 3)
    rng = np.random.default_rng(50)
    lams = _random_lams(rng, 50)
    xs = rng.uniform(0.1, 2.0, size=50)
    got = inverse_kernel(pair, 1, lams, xs)
    want = -(alpha * np.exp(-1j * alpha * lams * xs)
             + alpha ** 2 * np.exp(-1j * alpha ** 2 * lams * xs)) / (2.0 * np.pi)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_third_order_two_form_kernels(get_pair):
    """For the reversed order-3 problem (a = +i, two forms) the sector
    kernels are single exponentials (1/2pi) e^{-i alpha^2 lam x} and
    (1/2pi) e^{-i alpha lam x}."""
    pair = get_pair("reverse-lkdv")
    alpha = np.exp(2j * np.pi / 3)
    rng = np.random.default_rng(51)
    lams = _random_lams(rng, 50)
    xs = rng.uniform(0.1, 2.0, size=50)
    np.testing.assert_allclose(inverse_kernel(pair, 1, lams, xs),
                               np.exp(-1j * alpha ** 2 * lams * xs) / (2.0 * np.pi),
                               atol=1e-12)
    np.testing.assert_allclose(inverse_kernel(pair, 2, lams, xs),
                               np.exp(-1j * alpha * lams * xs) / (2.0 * np.pi),
                               atol=1e-12)


def test_heat_kernels(get_pair):
    """Heat sector kernels are +-(1/2pi) e^{+i lam x}: the argument
    multiplier is alpha = -1 and the weight is M(lam)/Delta(-lam), which is
    +1 for the Dirichlet form (M = 1) and -1 for the Neumann form
    (M = -i lam, Delta(-lam) = i lam)."""
    rng = np.random.default_rng(52)
    lams = _random_lams(rng, 50)
    xs = rng.uniform(0.1, 2.0, size=50)
    want = np.exp(1j * lams * xs) / (2.0 * np.pi)
    for name, sign in (("heat-dirichlet", 1.0), ("heat-neumann", -1.0)):
        np.testing.assert_allclose(inverse_kernel(get_pair(name), 1, lams, xs),
                                   sign * want, atol=1e-12)


def test_zero_component_kernel(get_pair):
    """The k = 0 kernel is the plain Fourier kernel e^{-i lam x} / 2 pi."""
    pair = get_pair("robin-4")
    lams = np.array([0.7 + 0.2j, -1.5 + 1.0j])
    xs = np.array([0.3, 1.1])
    np.testing.assert_allclose(inverse_kernel(pair, 0, lams, xs),
                               np.exp(-1j * lams * xs) / (2.0 * np.pi), atol=0)


def test_fhat_matches_adaptive_reference(get_datum):
    """The cached support transform equals int_0^L e^{-i mu y} f(y) dy
    computed by the independent adaptive rule."""
    datum = get_datum("heat-dirichlet")
    for mu in (0.0, 3.7, -2.2 + 1.1j, 14.0 - 0.5j):
        got = datum.fhat(np.array([mu]))[0]
        ref = adaptive_reference(
            lambda z: np.exp(-1j * mu * z) * datum.value(float(np.real(z))),
            [0.0, datum.support], tol=1e-13)
        assert ref.est_error < 1e-10
        assert abs(got - ref.value) < 1e-9, mu


def _dense_fhat(st, mu):
    """Dense evaluation of the support rule at one resolution level:
    exp(-i mu x_j) @ (w_j g(x_j)) over the same nodes, rebuilt from the
    level's coarse and fine fold offsets, steps and Gauss offsets, with the
    absolute sum of its terms; a row of each for every datum of a
    vector-valued g."""
    coarse, fine, step, gauss, wg = st._nodes(
        st._level_for(float(np.abs(mu).max())))[:5]
    mid = (coarse[:, None] + fine).ravel()
    nodes = (mid[:, None, None] + step[:, None] + gauss).ravel()
    terms = (np.exp(-1j * mu[:, None] * nodes[None, :])
             * wg.reshape(wg.shape[:-2] + (1, -1)))
    return terms.sum(axis=-1), np.abs(terms).sum(axis=-1)


@pytest.mark.parametrize("name, order", [
    ("reverse-lkdv", None), ("robin-4", None), ("heat-neumann", None),
    ("robin-4", 7)], ids=["reverse-lkdv", "robin-4", "heat-neumann", "robin-4-order7"])
def test_support_transform_matches_dense_oracle(get_datum, catalog, name,
                                                order, monkeypatch):
    """The phase-factored transform equals the dense exp @ (w g) of the same
    quadrature rule to rounding: |fast - dense| <= 16 eps (1 + |mu| L)
    sum_j |exp(-i mu x_j) w_j g(x_j)|, for levels 0..8, the datum, its
    n-th derivative and the two stacked as a vector-valued g (one row
    each), real mu and mu with |Im mu| <= 3, at the quadrature's Gauss
    order and, patched in, at an odd one, whose middle node has phase
    factor 1.  The derivative's level 8 folds S >= 32 panels, so the
    longest chain of powers of a step factor, 31 and more, is held to the
    same bound."""
    datum = get_datum(name)
    eps = np.finfo(float).eps
    if order is not None:
        monkeypatch.setattr(transforms, "_ORDER", order)
    n = catalog[name].order
    deriv = lambda x: datum.derivative(n, x)
    fine = datum.bandwidth * (1.0 + n)
    cases = {"f": (datum.value, datum.bandwidth), "Sf": (deriv, fine),
             "stack": (lambda x: np.stack([datum.value(x), deriv(x)]), fine)}
    folds = []
    for case, (g, rate) in cases.items():
        st = SupportTransform(g, datum.support, base_rate=rate)
        for level in range(9):
            top = 0.99 * st.base * 2.0 ** level
            re = np.linspace(-top, top, 9)
            mu = np.concatenate([re, re + 1j * np.linspace(-3.0, 3.0, 9)])
            assert st._level_for(float(np.abs(mu).max())) == level
            fast = st(mu)
            dense, scale = _dense_fhat(st, mu)
            bound = 16.0 * eps * (1.0 + np.abs(mu) * datum.support) * scale
            assert fast.shape == dense.shape
            assert np.all(np.abs(fast - dense) <= bound), (case, level)
        folds.append(st._nodes(8).step.size)
    assert max(folds) >= 32


@pytest.mark.parametrize("order", [None, 7], ids=["order24", "order7"])
def test_real_fold_matches_dense_oracle(catalog, monkeypatch, order):
    """At real mu, where fhat sums each fold's mirror node pairs about the
    fold centre as cos and sin with the level's even and odd weights, the
    transform equals the dense exp @ (w g) of the same rule to the bound
    of :func:`test_support_transform_matches_dense_oracle`, on levels 0..4,
    for a datum and for a stack of three data (one row each).  The floor
    rate's levels 0 and 1 hold folds of S = 1 panel; at the patched odd
    order 7 a fold of odd width has a centre node that is its own
    mirror."""
    if order is not None:
        monkeypatch.setattr(transforms, "_ORDER", order)
    problem = catalog["robin-4"]
    trio = data_trio(problem, 0)
    stack = DataStack(trio)
    eps = np.finfo(float).eps
    folds = set()
    for g, rate in ((trio[0].value, trio[0].bandwidth),
                    (stack.value, stack.bandwidth), (trio[1].value, 0.0)):
        st = SupportTransform(g, trio[0].support, base_rate=rate)
        for level in range(5):
            top = 0.99 * st.base * 2.0 ** level
            mu = np.concatenate([np.linspace(-top, top, 37), [0.0, top]])
            assert st._level_for(float(np.abs(mu).max())) == level
            folds.add((st._nodes(level).step.size,
                       st._nodes(level).wg.shape[-1] % 2))
            fast = st(mu)
            dense, scale = _dense_fhat(st, mu.astype(complex))
            bound = 16.0 * eps * (1.0 + np.abs(mu) * st.L) * scale
            assert fast.shape == dense.shape
            assert np.all(np.abs(fast - dense) <= bound), (level, rate)
    if order is None:
        assert (1, 0) in folds, folds
    else:
        assert any(odd for _, odd in folds), folds


def test_support_transform_exponentials_per_mu(catalog, monkeypatch):
    """One fhat call evaluates at most ceil(order / 2) + 5 complex
    exponentials per mu at every level 0..8: the coarse, fine and step
    fold offsets are equally spaced, so each table is exp(z g_0) times the
    powers of exp(z d), at most two exponentials (one where g_0 = 0), and
    the Gauss factors of one half of the panel are exponentials, their
    mirror half reciprocals.  On robin-4's recon datum (the bumps of seed
    41) at level 4, 259 panels of order 24 fold 8 at a time into 33 rows,
    laid out 6 x 6 with 3 zero rows: 2 + 1 + 1 + 12 = 16 exponentials per
    complex mu, and 17 per real mu, whose step offsets start at -h (S - 1)
    from the fold centre; one exponential per table entry took 32, one per
    row 53, and one per fold of 3 panels and one per node offset of a fold
    87 + 72 = 159."""
    problem = catalog["robin-4"]
    datum = make_datum(problem, problem.datum_kernel, seed=41)
    st = SupportTransform(datum.value, datum.support,
                          base_rate=datum.bandwidth)
    exp = np.exp
    counted = []

    def counting(z, *args, **kwargs):
        if np.iscomplexobj(z):
            counted.append(np.size(z))
        return exp(z, *args, **kwargs)

    gauss_half = -(-quadrature._ORDER // 2)
    for level in range(9):
        top = 0.99 * st.base * 2.0 ** level
        real = np.linspace(-top, top, 200)
        for mu in (real, real + 0.5j):
            counted.clear()
            with monkeypatch.context() as m:
                m.setattr(np, "exp", counting)
                st(mu)
            assert sum(counted) <= mu.size * (gauss_half + 5), level
            if level == 4:
                want = 16 if mu.imag.any() else 17
                assert sum(counted) == want * mu.size
        if level == 4:
            coarse, fine, step, _, wg = st._nodes(level)[:5]
            assert (coarse.size, fine.size, step.size, gauss_half) == (6, 6, 8, 12)
            assert np.abs(wg[33:]).max() == 0.0


def test_stacked_forward_batch_stays_within_chunk_budget(catalog):
    """robin-4's largest sector batch of a reconstruction (k = 2: 6792 lam,
    so one fhat call on 2 x 6792 mu) holds 2.30M phase entries, many
    chunks; on a warm level its tracemalloc peak stays below four chunk
    budgets of complex entries, less than the batch's phase entries
    alone.  So does the same batch for a stack of three data, whose chunks
    shrink with its 3 AB rows."""
    problem = catalog["robin-4"]
    pair = TransformPair(problem)
    datum = make_datum(problem, problem.datum_kernel, seed=41)
    batches = []
    forward = pair.forward

    def recording(d, k, lam, **kwargs):
        batches.append((k, lam))
        return forward(d, k, lam, **kwargs)

    pair.forward = recording
    pair.sector_component(datum, 2, np.linspace(0.05, 1.0, 20) * datum.support)
    del pair.forward
    k, lam = max(batches, key=lambda b: b[1].size)
    assert (k, lam.size) == (2, 6792)
    bound = 4 * transforms._CHUNK_BUDGET * 16
    stack = DataStack(data_trio(problem, 41))
    for data in (datum, stack):
        pair.forward(data, k, lam)  # builds the level outside the trace
        hat = data._hat
        wg = hat._nodes(hat._level_for(float(np.abs(lam).max()))).wg
        rows = wg.size // wg.shape[-1]
        entries = 2 * lam.size * (rows + wg.shape[-1])
        assert entries * 16 > bound
        tracemalloc.start()
        try:
            pair.forward(data, k, lam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (len(wg.shape), peak)


def test_support_transform_refuses_mu_past_top_level(get_datum):
    """|mu| beyond base * 2**16 raises instead of under-resolving."""
    datum = get_datum("heat-dirichlet")
    st = SupportTransform(datum.value, datum.support,
                          base_rate=datum.bandwidth)
    assert st._level_for(st.base * 2.0 ** 16) == 16
    with pytest.raises(ToleranceNotMet, match="top resolution level 16"):
        st._level_for(st.base * 2.0 ** 16 * 1.01)
    with pytest.raises(ToleranceNotMet):
        st(np.array([1.0, st.base * 2.0 ** 17]))


def test_support_transform_refuses_complex_integrand():
    """The real matrix product needs real weights: a complex-valued g
    raises instead of losing its imaginary part."""
    st = SupportTransform(lambda x: (1.0 + 1.0j) * x, 1.0, base_rate=0.0)
    with pytest.raises(TypeError, match="real-valued"):
        st(np.array([1.0]))


def test_transform_caches_evaluate_datum_once_under_threads(catalog, monkeypatch):
    """Threads sharing one datum evaluate it once per level of its
    transform: more threads than cores, a short switch interval, and every
    thread asking for the same levels in its own order.  A level is told
    apart by its node count, which about doubles with the level."""
    problem = catalog["heat-dirichlet"]
    datum = make_datum(problem, problem.datum_kernel, seed=0)
    calls = Counter()
    lock = threading.Lock()
    jet = InitialDatum.jet

    def counting(self, x, order):
        with lock:
            calls[order, np.size(x)] += 1
        return jet(self, x, order)

    monkeypatch.setattr(InitialDatum, "jet", counting)
    mus = [64.0 * 2.0 ** level for level in range(8)]
    errors = []

    def work(seed):
        order = np.random.default_rng(seed).permutation(len(mus))
        try:
            for i in order:
                datum.fhat(np.array([mus[i], -mus[i]]))
        except Exception as exc:  # a dead worker must fail the test
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    # fhat evaluates f alone: order-0 jets, one call per level
    assert {order for order, _ in calls} == {0}
    assert len(calls) >= 3
    assert list(calls.values()) == [1] * len(calls), calls


def _counting_constructions(monkeypatch) -> list:
    """Patch SupportTransform so that every construction is recorded."""
    built = []
    init = SupportTransform.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SupportTransform, "__init__", counting)
    return built


def test_verify_problem_never_rebuilds_a_transform(catalog, monkeypatch):
    """One verify_problem builds exactly one transform per datum it makes,
    the datum's own, when the datum is made, and one for the stack of its
    data trio, at the trio's largest base rate; none of a derivative."""
    built = _counting_constructions(monkeypatch)
    made = []  # holds the data, so no id is reused during the run
    stacks = []
    post_init = InitialDatum.__post_init__
    stack_init = DataStack.__init__

    def recording(self):
        post_init(self)
        made.append(self)

    def recording_stack(self, data):
        stack_init(self, data)
        stacks.append(self)

    monkeypatch.setattr(InitialDatum, "__post_init__", recording)
    monkeypatch.setattr(DataStack, "__init__", recording_stack)
    results = verify_problem(catalog["heat-neumann"])
    assert all_passed(results)
    assert len(made) == 3  # the data trio
    assert len(stacks) == 1
    assert [id(d) for d in stacks[0].data] == [id(d) for d in made]
    assert ([id(t) for t in built]
            == [id(d._hat) for d in made] + [id(stacks[0]._hat)])
    assert all(t.base == max(64.0 / d.support, d.bandwidth)
               for t, d in zip(built, made))
    assert built[-1].base == max(t.base for t in built[:-1])


def test_verify_transforms_each_mu_once_for_its_trio(catalog, monkeypatch):
    """One verify_problem of heat-neumann at the benchmark's tolerances
    (rel_tol 1e-8, abs_tol 1e-9) hands its support transforms at most
    12.5k mu: the trio's inversion and its spectral representation
    transform each mu once for all three data (measured 11,864).  With the
    representation checked on the first datum's own transform it was
    19.0k; with three separate inversions besides, 36k."""
    counted = []
    call = SupportTransform.__call__

    def counting(self, mu):
        counted.append(np.size(mu))
        return call(self, mu)

    monkeypatch.setattr(SupportTransform, "__call__", counting)
    results = verify_problem(catalog["heat-neumann"],
                             params=QuadratureParams(rel_tol=1e-8, abs_tol=1e-9))
    assert all_passed(results)
    print(f"verify heat-neumann: {len(counted)} fhat calls, {sum(counted)} mu")
    assert sum(counted) <= 12_500, sum(counted)


def test_verify_scans_one_tail_and_one_level_of_the_first_datum(catalog,
                                                                 monkeypatch):
    """One verify_problem of heat-neumann at the benchmark's tolerances runs
    the real line's tail scan once, for the inversion and the spectral
    representation of all three data, and leaves the first datum's own
    transform at resolution level 0: the evolution checks need no more,
    and the remainder reads no fhat.  Checking the representation on that transform
    scanned a second tail and built its levels 0 to 4."""
    trios = []
    scans = []
    trio_of = verify.data_trio
    scan = TransformPair.gamma0_tail_scan

    def recording_trio(*args, **kwargs):
        trios.append(trio_of(*args, **kwargs))
        return trios[-1]

    def counting_scan(self, *args, **kwargs):
        scans.append(self.problem.label)
        return scan(self, *args, **kwargs)

    monkeypatch.setattr(verify, "data_trio", recording_trio)
    monkeypatch.setattr(TransformPair, "gamma0_tail_scan", counting_scan)
    results = verify_problem(catalog["heat-neumann"],
                             params=QuadratureParams(rel_tol=1e-8, abs_tol=1e-9))
    assert all_passed(results)
    assert len(trios) == 1
    assert len(scans) == 1
    assert sorted(trios[0][0]._hat._levels) == [0]


@pytest.mark.parametrize("name", ["lkdv-dirichlet", "reverse-lkdv",
                                  "heat-dirichlet", "heat-neumann", "robin-4"])
def test_stacked_components_match_each_datum(get_pair, catalog, name):
    """Each row of the stacked inversion of a catalog trio agrees with the
    inversion of its datum alone, component by component, to 1e-13.  A
    datum whose own base rate is below the stack's is held to the stack's
    finer rule (a copy of it whose transform has the stack's base rate):
    on its own coarser layout it differs by fhat's rounding carried over
    the real line's tail, about 2.6e-11, which
    test_evolution_initial_row_is_the_datums_reconstruction bounds.  Beyond that, a stack only runs a tail scan or a ray on past
    where the datum's own stopped, by terms below abs_tol / 8; measured
    at most 2.9e-14 (heat-neumann's maximal datum).  On the same rule the
    rows of F_k[f] and F_k[Sf] agree to 1e-14 relative (measured equal)."""
    pair = get_pair(name)
    trio = data_trio(catalog[name], 0)
    stack = DataStack(trio)
    xs = np.linspace(0.05, 1.0, 20)
    lam = np.array([0.3 + 0.2j, -2.0 + 1.0j, 7.5, 9.0 - 3.0j, 4.0 + 5.0j])
    parts = pair.components(stack, xs)
    assert [p.shape for p in parts] == [(3, 20)] * (pair.N + 1)
    worst = 0.0
    for row, datum in enumerate(trio):
        datum = on_stack_rule(datum, stack)
        for k in range(pair.N + 1):
            for applied in (False, True):
                own = pair.forward(datum, k, lam, applied=applied)
                np.testing.assert_allclose(
                    pair.forward(stack, k, lam, applied=applied)[row], own,
                    rtol=1e-14, atol=0)
        own = pair.components(datum, xs)
        worst = max(worst, max(float(np.abs(p[row] - q).max())
                               for p, q in zip(parts, own)))
    print(f"{name}: stacked rows within {worst:.2e} of single inversions")
    assert worst <= 1e-13


def test_pairs_of_one_problem_share_a_datums_transforms(catalog, monkeypatch):
    """A second TransformPair of the same problem reuses the transform
    levels the first one had the datum fill, builds no transform, and
    returns the same values."""
    problem = catalog["lkdv-dirichlet"]
    datum = make_datum(problem, problem.datum_kernel, seed=5)
    lam = np.array([1.7 + 0.3j, -0.8 + 0.9j, 6.0])
    first = [TransformPair(problem).forward(datum, 1, lam, applied=applied)
             for applied in (False, True)]
    built = _counting_constructions(monkeypatch)
    second = [TransformPair(problem).forward(datum, 1, lam, applied=applied)
              for applied in (False, True)]
    assert not built
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a, b)


def test_datum_and_its_transforms_form_no_cycle(catalog):
    """With the collector off, dropping the last reference to a datum whose
    transform has filled a level frees it: neither a pair nor the datum's
    own transform keeps it alive."""
    problem = catalog["heat-dirichlet"]
    pair = TransformPair(problem)
    datum = make_datum(problem, problem.datum_kernel, seed=3)
    for applied in (False, True):
        pair.forward(datum, 1, np.array([1.0 + 0.5j, 4.0]), applied=applied)
    assert datum._hat._levels
    ref = weakref.ref(datum)
    gc.disable()
    try:
        del datum
        assert ref() is None
    finally:
        gc.enable()


def test_real_axis_tails_mirror_identity():
    """The left-ray tail is the mirrored conjugate of the right one, to
    1e-14 relative, so the right ray alone gives the two-ray real-axis
    tail; summed on its vertical path for all points and powers at once,
    it matches mpmath's exponential integrals to 1e-14 of a ray tail."""
    xs = np.linspace(0.05, 1.0, 12)
    powers = range(1, 6)
    for r0 in (2.0, 3.7):
        tails = transforms._real_axis_monomial_tails(r0, xs, powers,
                                                     QuadratureParams())
        for p, got in zip(powers, tails.T):
            right = np.array([ray_monomial_tail(0.0, r0, x, p) for x in xs])
            left = np.array([ray_monomial_tail(np.pi, r0, x, p) for x in xs])
            np.testing.assert_allclose(left, (-1.0) ** (1 - p) * np.conj(right),
                                       rtol=1e-14, atol=0)
            # right - left cancels to one real or imaginary part, so the
            # comparison is relative to the size of a ray tail
            np.testing.assert_allclose(got, right - left, rtol=0,
                                       atol=1e-14 * np.abs(right).max())


def test_fhat_derivative_streams(get_datum):
    """The tests' Gauss sum of f', the kind of reference the applied
    forward transform is checked against, matches the adaptive Simpson
    integral of exp(-i mu x) f'(x)."""
    datum = get_datum("heat-dirichlet")
    mu = 2.4 - 0.7j
    got = derivative_transform(datum, 1)(np.array([mu]))[0]
    ref = adaptive_reference(
        lambda z: np.exp(-1j * mu * z) * datum.derivative(1, float(np.real(z))),
        [0.0, datum.support], tol=1e-13)
    assert abs(got - ref.value) < 1e-9


@pytest.mark.parametrize("name", ["lkdv-dirichlet", "reverse-lkdv",
                                  "heat-dirichlet", "heat-neumann", "robin-4"])
def test_applied_forward_matches_quadrature_of_the_nth_derivative(
        get_pair, get_datum, name):
    """F_k[Sf], which forward derives from fhat by parts, equals the kernel
    weights times (-i)^n the tests' Gauss sum of f(n), for k = 0..N, on the
    remainder circle |lam| = R + 1.5 and on real lam up to 64.

    The tolerance is twice the two sides' known errors, per argument
    mu_l = alpha^(N+l-k) lam and weighted by |w_l| (1 / 2 pi for k = 0):
    the reference's rounding, 16 eps sum_j |exp(-i mu x_j) w_j f(n)(x_j)|,
    and fhat's quadrature error carried by mu^n, measured against a rule
    of f with 16 times fhat's base rate, plus that rule's rounding.  The
    second dominates: fhat is off by about 1e-13 at real mu, which |mu|^n
    amplifies far above the reference's rounding (2e3 times it at lam =
    32 on lkdv-dirichlet), so a tolerance from that rounding alone would
    not hold."""
    eps = np.finfo(float).eps
    pair = get_pair(name)
    datum = get_datum(name)
    n = pair.n
    reference = derivative_transform(datum, n)
    fine = SupportTransform(datum.value, datum.support,
                            base_rate=16.0 * datum._hat.base)
    lam = np.concatenate([
        (pair.R + 1.5) * np.exp(2j * np.pi * np.arange(4 * n + 7) / (4 * n + 7)),
        np.geomspace(0.5, 64.0, 8)])
    for k in range(pair.N + 1):
        if k == 0:
            mults, weights = np.ones((1, 1)), np.full((1, lam.size), 0.5 / np.pi)
        else:
            mults, weights = pair.kernel_weights(k, lam)
        mu = (mults * lam).ravel()
        ref, ref_scale = (v.reshape(weights.shape)
                          for v in _dense_fhat(reference, mu))
        fine_val, fine_scale = (v.reshape(weights.shape)
                                for v in _dense_fhat(fine, mu))
        fhat_err = np.abs(datum.fhat(mu).reshape(weights.shape) - fine_val)
        rounding = (np.abs(weights) * 16.0 * eps * ref_scale).sum(axis=0)
        inherited = (np.abs(weights) * np.abs(mults * lam) ** n
                     * (fhat_err + 16.0 * eps * fine_scale)).sum(axis=0)
        tol = 2.0 * (rounding + inherited)
        want = (weights * (-1j) ** n * ref).sum(axis=0)
        diff = np.abs(pair.forward(datum, k, lam, applied=True) - want)
        worst = int(np.argmax(diff / tol))
        print(f"{name} k={k}: |diff| / tol max {diff[worst] / tol[worst]:.3f} "
              f"at lam {lam[worst]:.3g} (rounding {rounding[worst]:.2e}, "
              f"fhat error {inherited[worst]:.2e})")
        assert np.all(diff <= tol), (k, diff / tol)


def test_fhat_reflection_symmetry(get_datum):
    """Real data give fhat(-lam) = conj(fhat(lam)) on the real axis."""
    datum = get_datum("lkdv-dirichlet")
    lam = np.array([0.9, 4.2, 17.0])
    plus = datum.fhat(lam.astype(complex))
    minus = datum.fhat(-lam.astype(complex))
    np.testing.assert_allclose(minus, np.conj(plus), rtol=0, atol=1e-13)


def test_forward_zero_component_is_scaled_fhat(get_pair, get_datum):
    pair = get_pair("heat-neumann")
    datum = get_datum("heat-neumann")
    lam = np.array([0.5 + 0.1j, -3.0 + 2.0j])
    np.testing.assert_allclose(pair.forward(datum, 0, lam),
                               datum.fhat(lam) / (2.0 * np.pi), atol=0)


def test_forward_sector_integrates_kernel(get_pair, get_datum):
    """F_k[f](lam) equals int_0^L K_k(lam, y) f(y) dy, K_k the inverse
    kernel summed from ``kernel_weights``, tying the weighted-transform
    evaluation to the kernel definition."""
    pair = get_pair("lkdv-dirichlet")
    datum = get_datum("lkdv-dirichlet")
    for lam in (1.7 + 0.3j, -0.8 + 0.9j):
        got = pair.forward(datum, 1, np.array([lam]))[0]
        ref = adaptive_reference(
            lambda z: inverse_kernel(pair, 1, lam, float(np.real(z)))
            * datum.value(float(np.real(z))),
            [0.0, datum.support], tol=1e-13)
        assert abs(got - ref.value) < 1e-9, lam


def test_forward_amplitude_linearity(get_pair, get_datum, catalog):
    """Transforms scale linearly with the datum amplitude."""
    from halfline.datum import InitialDatum, make_datum
    prob = catalog["robin-4"]
    pair = get_pair("robin-4")
    base = get_datum("robin-4")
    small = make_datum(prob, prob.datum_kernel, seed=0, amplitude=1e-3)
    lam = np.array([2.1 + 0.5j, -1.2 + 2.2j])
    for k in (0, 1, 2):
        np.testing.assert_allclose(pair.forward(small, k, lam),
                                   1e-3 * pair.forward(base, k, lam),
                                   rtol=1e-12, atol=1e-18)


def test_kernel_component_bounds(get_pair):
    """Sector indices outside 1..N are refused by kernel_weights."""
    pair = get_pair("heat-dirichlet")
    with pytest.raises(ValueError):
        pair.kernel_weights(2, np.array([1.0 + 0.5j]))
    with pytest.raises(ValueError):
        pair.kernel_weights(0, np.array([1.0 + 0.5j]))


def test_reconstruct_round_trip_and_support(get_pair, get_datum):
    """Inversion of the forward transforms reproduces the datum inside the
    support and vanishes beyond it."""
    pair = get_pair("heat-dirichlet")
    datum = get_datum("heat-dirichlet")
    xs = np.array([0.25, 0.6, 0.9, 1.3, 1.8])
    got = pair.reconstruct(datum, xs)
    want = datum.value(xs)
    np.testing.assert_allclose(got.real, want, atol=2e-7)
    np.testing.assert_allclose(got.imag, 0.0, atol=2e-7)
    assert np.abs(got[3:]).max() < 2e-7  # beyond the support

    with pytest.raises(NonpositiveX):
        pair.reconstruct(datum, np.array([0.0, 0.5]))


def test_sector_component_vanishes_for_positive_x(get_pair, get_datum):
    """The sector integral of F_k[f] carries no mass for x > 0."""
    pair = get_pair("heat-dirichlet")
    datum = get_datum("heat-dirichlet")
    vals = np.abs(pair.sector_component(datum, 1, np.array([0.3, 0.9])))
    assert vals.max() < 1e-6


def test_sector_component_rejects_an_index_outside_the_sectors(get_pair,
                                                              get_datum):
    """Only k = 1..N names a sector: k = 0 would integrate F_0 over the
    last sector's contour and k = N + 1 would run past the contours, so
    both raise ValueError."""
    pair = get_pair("reverse-lkdv")
    datum = get_datum("reverse-lkdv")
    for k in (0, pair.N + 1):
        with pytest.raises(ValueError, match="sector index"):
            pair.sector_component(datum, k, np.array([0.3, 0.7]))


def _axis_ray_alone(pair, k):
    """A copy of ``pair`` whose component k is its infinite real-axis ray
    alone."""
    (ray,) = [seg for seg in pair.contours.gammas[k - 1]
              if seg.on_real_axis and not seg.finite]
    alone = copy.copy(pair)
    gammas = list(pair.contours.gammas)
    gammas[k - 1] = (ray,)
    alone.contours = dataclasses.replace(pair.contours, gammas=tuple(gammas))
    return alone, ray


def test_turned_axis_ray_matches_qawf(get_pair, get_datum):
    """reverse-lkdv's k = 1 ray along [R, inf), turned into its sector,
    integrates exp(i lam x) F_1 as QUADPACK's Fourier integral (QAWF) does
    on the axis itself."""
    pair, ray = _axis_ray_alone(get_pair("reverse-lkdv"), 1)
    datum = get_datum("reverse-lkdv")
    x = 0.4
    F = lambda lam: pair.forward(datum, 1, np.array([lam + 0j]))[0]
    part = {}
    for weight in ("cos", "sin"):
        for name, f in (("re", lambda lam: F(lam).real),
                        ("im", lambda lam: F(lam).imag)):
            part[weight, name] = integrate.quad(
                f, ray.r0, np.inf, weight=weight, wvar=x, epsabs=1e-13,
                limlst=100)[0]
    want = ray.orientation * (part["cos", "re"] - part["sin", "im"]
                              + 1j * (part["sin", "re"] + part["cos", "im"]))
    got = pair.sector_component(datum, 1, np.array([x]))[0]
    assert abs(want) > 1e-2
    assert abs(got - want) < 1e-12


@pytest.mark.parametrize("turn", [0.25, 0.75])
def test_axis_ray_turn_leaves_sector_values(get_pair, get_datum, monkeypatch,
                                            turn):
    """Turning the real-axis rays by a quarter or three quarters of the
    sector's width instead of half gives the same integrals (Cauchy's
    theorem), for F_k[f] and for lam^-n F_k[Sf], on the ray alone and on
    the whole component; the type-II integrals of reverse-lkdv and of
    Schroedinger-Dirichlet (n = 2, a = i), which run on the same turned
    rays, stay below the absolute tolerance."""
    pair = get_pair("reverse-lkdv")
    datum = get_datum("reverse-lkdv")
    schr = validate(HalfLineProblem(2, 1j, [[1.0, 0.0]]))
    type_ii = [(pair, datum, k) for k in (1, 2)] + [
        (TransformPair(schr), make_datum(schr, (0.0, 1.0), seed=0), 1)]
    xs = np.array([0.05, 0.4, 1.3])
    forms = ({}, {"represent": True})
    cases = [(p, k, form) for k in (1, 2)
             for p in (pair, _axis_ray_alone(pair, k)[0]) for form in forms]
    half = [p.sector_component(datum, k, xs, **form) for p, k, form in cases]
    monkeypatch.setattr(contours, "_TURN", turn)
    for (p, k, form), want in zip(cases, half):
        got = p.sector_component(datum, k, xs, **form)
        np.testing.assert_allclose(got, want, rtol=1e-11, atol=1e-14)
    for p, d, k in type_ii:
        residuals = check_type_II(p, d, k, np.array([0.3, 0.7, 1.2])).residuals
        assert residuals.max() < p.params.abs_tol, (p.problem.label, k)


@pytest.mark.parametrize("name", ["heat-dirichlet", "reverse-lkdv"])
@pytest.mark.parametrize("params", [QuadratureParams(),
                                    QuadratureParams(rel_tol=1e-8,
                                                     abs_tol=1e-9)])
def test_zero_datum_inverts_to_zero(catalog, name, params):
    """A zero datum (no boundary jet, no bump) cuts every sector ray at its
    junction, where its envelope already starts below the tail target: the
    inversion and the evolution are zero instead of failing on an empty
    ray.  A heat datum of amplitude 1e-12 cuts its rays likewise and still
    reconstructs."""
    problem = catalog[name]
    pair = TransformPair(problem, params)
    xs = np.linspace(0.1, 1.0, 7)
    zero = make_datum(problem, (), seed=None)
    np.testing.assert_array_equal(pair.reconstruct(zero, xs), 0.0)
    np.testing.assert_array_equal(solve_grid(pair, zero, xs, [0.1]).values,
                                  0.0)
    if name == "heat-dirichlet":
        tiny = make_datum(problem, (), seed=0, amplitude=1e-12)
        err = np.abs(pair.reconstruct(tiny, xs) - tiny.value(xs)).max()
        assert err <= params.abs_tol


def test_sector_forward_calls_do_not_grow_with_points(catalog, get_datum,
                                                      monkeypatch):
    """A reverse-lkdv reconstruction evaluates the transforms at one node
    set per sector component, whatever the number of points."""
    calls = Counter()
    forward = TransformPair.forward

    def counting(self, *args, **kwargs):
        calls["forward"] += 1
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(TransformPair, "forward", counting)
    pair = TransformPair(catalog["reverse-lkdv"])
    datum = get_datum("reverse-lkdv")
    counts = []
    for size in (20, 40):
        calls.clear()
        pair.reconstruct(datum, np.linspace(0.1, 1.5, size))
        counts.append(calls["forward"])
    assert counts[0] == counts[1] <= 3 * pair.N


def test_sector_component_over_node_budget_raises(catalog, get_datum,
                                                  monkeypatch):
    """A sector ray that needs more nodes than the budget raises instead of
    returning a truncated sum."""
    monkeypatch.setattr(quadrature, "_MAX_NODES", 100)
    pair = TransformPair(catalog["reverse-lkdv"])
    datum = get_datum("reverse-lkdv")
    for k in (1, 2):
        with pytest.raises(ToleranceNotMet, match="panel budget"):
            pair.sector_component(datum, k, np.array([0.3, 0.7]))


_CATALOG = ["lkdv-dirichlet", "reverse-lkdv", "heat-dirichlet",
            "heat-neumann", "robin-4"]
_MIRRORED = _CATALOG[:4]
# evaluation points on the unit support: the benchmark's recon workload
# (also verify_problem's reconstruction points), verify_problem's type and
# representation checks, and the ends of the evolve workload's grid
_POINT_SETS = {"recon": np.linspace(0.05, 1.0, 20),
               "verify-xs3": np.array([0.3, 0.7, 1.2]),
               "evolve": np.linspace(1.5 / 400, 1.5, 400)}


@pytest.mark.parametrize("name", _CATALOG)
def test_phase_rate_is_the_exponential_type(get_pair, name):
    """phase_rate(k, xs, L) is max |x - alpha^p y| over x in xs, y in
    [0, L] and component k's multipliers alpha^p (p = 0 for k = 0): it
    bounds that maximum over a 2001-point y grid and is attained to
    1e-12.  At recon's points the k = 0 rate is 1, half the x_max + L it
    replaces; heat's multiplier -1 keeps x_max + L."""
    pair = get_pair(name)
    y = np.linspace(0.0, 1.0, 2001)
    for label, xs in _POINT_SETS.items():
        for k in range(pair.N + 1):
            mults = np.ones(1) if k == 0 else pair.kernel_weights(k, 1.0)[0].ravel()
            reach = np.abs(xs[:, None, None] - mults[:, None] * y).max()
            rate = pair.phase_rate(k, xs, 1.0)
            assert reach <= rate <= reach + 1e-12, (label, k, rate, reach)
    recon = _POINT_SETS["recon"]
    assert pair.phase_rate(0, recon, 1.0) == 1.0
    if name.startswith("heat"):
        assert pair.phase_rate(1, recon, 1.0) == 2.0


@pytest.mark.parametrize("name", _CATALOG)
def test_phase_rate_leaves_inversion_values(catalog, name, monkeypatch):
    """At recon's points the real-line piece and every sector component,
    integrated at the exponential-type rate, agree within 1e-13 with the
    same calls at the rate x_max + L, passed through real_line_component
    and junction_osc."""
    problem = catalog[name]
    pair = TransformPair(problem)
    datum = make_datum(problem, problem.datum_kernel, seed=41)
    xs = _POINT_SETS["recon"] * datum.support
    new = [pair._gamma0_piece(datum, xs)] + [
        pair.sector_component(datum, k, xs) for k in range(1, pair.N + 1)]
    old_rate = float(xs.max()) + datum.support
    real_line, junction = pair.real_line_component, pair.junction_osc
    monkeypatch.setattr(pair, "real_line_component",
                        lambda G, xs, rate, **kw: real_line(G, xs, old_rate, **kw))
    monkeypatch.setattr(pair, "junction_osc",
                        lambda seg, rate: junction(seg, old_rate))
    old = [pair._gamma0_piece(datum, xs)] + [
        pair.sector_component(datum, k, xs) for k in range(1, pair.N + 1)]
    for k, (got, want) in enumerate(zip(new, old)):
        assert np.abs(got - want).max() <= 1e-13, (k, np.abs(got - want).max())


def _oriented_points(segs) -> np.ndarray:
    """Sample points of a component in its direction of travel, rays cut
    5 past their start."""
    out = []
    for seg in segs:
        u = (np.linspace(seg.a0, seg.a1, 9) if seg.kind == "arc"
             else np.linspace(seg.r0, seg.r0 + 5.0, 9))
        pts = seg.point(u)
        out.append(pts if seg.orientation > 0 else pts[::-1])
    return np.concatenate(out)


@pytest.mark.parametrize("name", _MIRRORED)
def test_mirror_fold_identity_at_component_nodes(catalog, name):
    """For a mirrored problem lam -> -conj(lam) maps component k onto
    component N+1-k traversed the other way, and at component k's nodes
    F_(N+1-k)(-conj lam) = conj F_k(lam), and likewise for
    lam^-n F_k[Sf].  The tolerance is the rounding of F: the dense
    oracle's 16 eps (1 + |mu| L) sum_j |exp(-i mu x_j) w_j f(x_j)| per
    argument mu = alpha^p lam, weighted by |w_l| (|lam^-n mu^n| = 1 for
    F[Sf]).  Measured: at most 0.10 of it for F and 0.39 for F[Sf], at
    the nodes of the recon points' components."""
    eps = np.finfo(float).eps
    problem = catalog[name]
    pair = TransformPair(problem)
    assert pair.mirrored
    datum = make_datum(problem, problem.datum_kernel, seed=0)
    xs = _POINT_SETS["recon"]
    t0 = contours.turn_axis_rays(pair.contours)
    batches = []
    forward = pair.forward

    def recording(d, k, lam, **kwargs):
        batches.append((k, lam))
        return forward(d, k, lam, **kwargs)

    for k in range(1, pair.N + 1):
        j = pair.N + 1 - k
        np.testing.assert_allclose(
            _oriented_points(t0.gammas[j - 1]),
            -np.conj(_oriented_points(t0.gammas[k - 1]))[::-1], atol=1e-14)
        batches.clear()
        pair.forward = recording
        pair.sector_component(datum, k, xs)
        del pair.forward
        lam = max((b for b in batches if b[0] == k), key=lambda b: b[1].size)[1]
        mults, weights = pair.kernel_weights(k, lam)
        mu = mults * lam
        terms = np.concatenate([_dense_fhat(datum._hat, part)[1] for part in
                                np.array_split(mu.ravel(), mu.size // 256 + 1)])
        scale = (np.abs(weights) * 16.0 * eps * (1.0 + np.abs(mu) * datum.support)
                 * terms.reshape(mu.shape)).sum(axis=0)
        for applied in (False, True):
            here = pair.forward(datum, k, lam, applied=applied)
            there = pair.forward(datum, j, -np.conj(lam), applied=applied)
            if applied:
                here = here * lam ** -float(pair.n)
                there = there * (-np.conj(lam)) ** -float(pair.n)
            ratio = np.abs(there - np.conj(here)) / scale
            print(f"{name} k={k} applied={applied}: |F_(N+1-k)(-conj lam) - "
                  f"conj F_k(lam)| / tol max {ratio.max():.3f} over {lam.size} nodes")
            assert ratio.max() <= 1.0, (k, applied, ratio.max())


def test_mirrored_components_are_an_exact_conjugate_pair(get_pair, get_datum,
                                                         monkeypatch):
    """reverse-lkdv's components integrate sector 1 alone and return its
    conjugate, bit for bit, as sector 2; robin-4 is not mirrored and its
    components equal the per-k sector_component calls bit for bit."""
    calls = Counter()
    sector = TransformPair.sector_component

    def counting(self, datum, k, xs, **kwargs):
        calls[self.problem.label, k] += 1
        return sector(self, datum, k, xs, **kwargs)

    monkeypatch.setattr(TransformPair, "sector_component", counting)
    xs = _POINT_SETS["recon"]
    pair, datum = get_pair("reverse-lkdv"), get_datum("reverse-lkdv")
    parts = pair.components(datum, xs)
    assert len(parts) == 3
    np.testing.assert_array_equal(parts[2], np.conj(parts[1]))
    assert calls == {("reverse-lkdv", 1): 1}
    pair, datum = get_pair("robin-4"), get_datum("robin-4")
    assert not pair.mirrored
    parts = pair.components(datum, xs)
    for k in (1, 2):
        np.testing.assert_array_equal(parts[k], sector(pair, datum, k, xs))
    assert calls[("robin-4", 1)] == calls[("robin-4", 2)] == 1


def test_schroedinger_dirichlet_reconstructs():
    """Schroedinger with a Dirichlet condition (n = 2, a = i): the sector
    (0, pi/2) has a real-axis ray, and the inversion reproduces the datum
    while the sector component vanishes."""
    problem = validate(HalfLineProblem(2, 1j, [[1.0, 0.0]]))
    pair = TransformPair(problem)
    datum = make_datum(problem, (0.0, 1.0), seed=0)
    assert any(seg.on_real_axis for seg in pair.contours.gammas[0])
    xs = np.linspace(0.1, 1.5, 20)
    real_line, sector = pair.components(datum, xs)
    assert np.abs(sector).max() < 1e-12
    assert np.abs(real_line + sector - datum.value(xs)).max() < 1e-9


@pytest.mark.parametrize("name", ["heat-dirichlet", "robin-4"])
def test_real_line_component_monomials_below_indentation_vanish(get_pair, name):
    """int exp(i lam x) lam^-p over the real line indented above its pole
    is zero (close the contour upward).  Central nodes and exact tails
    reproduce that to 1e-13: the indentation's radius lambda_center / 2
    keeps |lam^-p| at most 1 on it, so its rounding stays near 1e-15, far
    below the 1e-15 delta^-p of an indentation at the contours' delta."""
    pair = get_pair(name)
    delta = pair.contours.delta
    xs = np.array([0.1, 1.0, 7.5])
    for p in range(1, 6):
        got = pair.real_line_component(None, xs, float(xs.max()) + 1.0,
                                       monomials=[(p, 1.0)], indented=True)
        assert np.abs(got).max() < 1e-15 * delta ** -p, p
        assert np.abs(got).max() < 1e-13, p


def test_real_line_component_restores_residue_above_indentation(get_pair):
    """i / (lam - ic) keeps the real-data symmetry and its pole lies above
    the contour, and above the indentation of radius lambda_center / 2, so
    the integral is the residue -2 pi exp(-c x); its first four powers
    i (ic)^k lam^-(k+1) are subtracted for the tail scan and restored
    exactly."""
    pair = get_pair("heat-dirichlet")
    c = 0.75 * pair.lambda_center
    xs = np.array([0.5, 1.0, 2.0])
    monomials = [(k + 1, 1j * (1j * c) ** k) for k in range(4)]
    got = pair.real_line_component(lambda lam: 1j / (lam - 1j * c), xs,
                                   float(xs.max()) + 1.0,
                                   monomials=monomials, indented=True)
    np.testing.assert_allclose(got, -2.0 * np.pi * np.exp(-c * xs),
                               rtol=0, atol=1e-10)
