"""Forward transforms, inverse kernels, and reconstruction round trips."""

import sys
import threading
from collections import Counter

import numpy as np
import pytest

from halfline import transforms
from halfline.datum import make_datum
from halfline.errors import NonpositiveX, ToleranceNotMet
from halfline.oracles import adaptive_reference
from halfline.quadrature import QuadratureParams, ray_monomial_tail
from halfline.transforms import SupportTransform, TransformPair
from halfline.verify import all_passed, verify_problem


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
    got = pair.kernel(1, lams, xs)
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
    np.testing.assert_allclose(pair.kernel(1, lams, xs),
                               np.exp(-1j * alpha ** 2 * lams * xs) / (2.0 * np.pi),
                               atol=1e-12)
    np.testing.assert_allclose(pair.kernel(2, lams, xs),
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
    np.testing.assert_allclose(get_pair("heat-dirichlet").kernel(1, lams, xs),
                               want, atol=1e-12)
    np.testing.assert_allclose(get_pair("heat-neumann").kernel(1, lams, xs),
                               -want, atol=1e-12)


def test_zero_component_kernel(get_pair):
    """kernel(0) is the plain Fourier kernel e^{-i lam x} / 2 pi."""
    pair = get_pair("robin-4")
    lams = np.array([0.7 + 0.2j, -1.5 + 1.0j])
    xs = np.array([0.3, 1.1])
    np.testing.assert_allclose(pair.kernel(0, lams, xs),
                               np.exp(-1j * lams * xs) / (2.0 * np.pi), atol=0)


def test_fhat_matches_adaptive_reference(get_pair, get_datum):
    """The cached support transform equals int_0^L e^{-i mu y} f(y) dy
    computed by the independent adaptive rule."""
    pair = get_pair("heat-dirichlet")
    datum = get_datum("heat-dirichlet")
    for mu in (0.0, 3.7, -2.2 + 1.1j, 14.0 - 0.5j):
        got = pair.fhat(datum, np.array([mu]))[0]
        ref = adaptive_reference(
            lambda z: np.exp(-1j * mu * z) * datum.value(float(np.real(z))),
            [0.0, datum.support], tol=1e-13)
        assert ref.est_error < 1e-10
        assert abs(got - ref.value) < 1e-9, mu


def _dense_fhat(st, mu):
    """Dense evaluation of the support rule at one resolution level:
    exp(-i mu x_j) @ (w_j g(x_j)) over the same panels, with the absolute
    sum of its terms."""
    mid, hx, wg = st._nodes(st._level_for(float(np.abs(mu).max())))
    nodes = (mid[:, None] + hx[None, :]).ravel()
    terms = np.exp(-1j * mu[:, None] * nodes[None, :]) * wg.ravel()[None, :]
    return terms.sum(axis=1), np.abs(terms).sum(axis=1)


@pytest.mark.parametrize("name", ["reverse-lkdv", "robin-4", "heat-neumann"])
def test_support_transform_matches_dense_oracle(get_datum, catalog, name):
    """The panel-factored transform equals the dense exp @ (w g) of the same
    quadrature rule to rounding: |fast - dense| <= 16 eps (1 + |mu| L)
    sum_j |exp(-i mu x_j) w_j g(x_j)|, for levels 0..8, the datum and its
    n-th derivative, real mu and mu with |Im mu| <= 3."""
    datum = get_datum(name)
    eps = np.finfo(float).eps
    for deriv in (0, catalog[name].order):
        g = datum.value if deriv == 0 else datum.derivative_function(deriv)
        st = SupportTransform(g, datum.support, QuadratureParams(),
                              base_rate=datum.bandwidth * (1.0 + deriv))
        for level in range(9):
            top = 0.99 * st.base * 2.0 ** level
            re = np.linspace(-top, top, 9)
            mu = np.concatenate([re, re + 1j * np.linspace(-3.0, 3.0, 9)])
            assert st._level_for(float(np.abs(mu).max())) == level
            fast = st(mu)
            dense, scale = _dense_fhat(st, mu)
            bound = 16.0 * eps * (1.0 + np.abs(mu) * datum.support) * scale
            assert np.all(np.abs(fast - dense) <= bound), (deriv, level)


def test_support_transform_refuses_mu_past_top_level(get_datum):
    """|mu| beyond base * 2**16 raises instead of under-resolving."""
    datum = get_datum("heat-dirichlet")
    st = SupportTransform(datum.value, datum.support, QuadratureParams())
    assert st._level_for(st.base * 2.0 ** 16) == 16
    with pytest.raises(ToleranceNotMet, match="top resolution level 16"):
        st._level_for(st.base * 2.0 ** 16 * 1.01)
    with pytest.raises(ToleranceNotMet):
        st(np.array([1.0, st.base * 2.0 ** 17]))


class _CountingDatum:
    """Datum stand-in that counts evaluations of each derivative stream."""

    def __init__(self, datum):
        self.datum = datum
        self.support = datum.support
        self.bandwidth = datum.bandwidth
        self.calls = Counter()
        self._lock = threading.Lock()

    def _count(self, deriv, x):
        with self._lock:
            self.calls[deriv, np.size(x)] += 1

    def value(self, x):
        self._count(0, x)
        return self.datum.value(x)

    def derivative_function(self, k):
        fk = self.datum.derivative_function(k)

        def g(x):
            self._count(k, x)
            return fk(x)
        return g


def test_transform_caches_evaluate_datum_once_under_threads(catalog, get_datum):
    """Threads sharing one TransformPair evaluate the datum once per
    (deriv, level): more threads than cores, a short switch interval, and
    every thread asking for the same levels in its own order.  A level is
    told apart by its node count, which about doubles with the level."""
    pair = TransformPair(catalog["heat-dirichlet"])
    datum = _CountingDatum(get_datum("heat-dirichlet"))
    requests = [(deriv, 64.0 * 2.0 ** level)
                for deriv in (0, 1, 2) for level in range(8)]
    errors = []

    def work(seed):
        order = np.random.default_rng(seed).permutation(len(requests))
        try:
            for i in order:
                deriv, mu = requests[i]
                pair.fhat(datum, np.array([mu, -mu]), deriv=deriv)
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
    for deriv in (0, 1, 2):
        counts = [c for (d, _), c in datum.calls.items() if d == deriv]
        assert len(counts) >= 3
        assert counts == [1] * len(counts), (deriv, datum.calls)


def test_transform_cache_is_a_bounded_lru(catalog):
    """200 fresh data leave at most the bound in the cache; the least
    recently used entry goes first."""
    problem = catalog["heat-dirichlet"]
    pair = TransformPair(problem)
    mu = np.array([1.0, -2.0])
    first = make_datum(problem, problem.datum_kernel, seed=0)
    pair.fhat(first, mu)
    fresh = []
    for seed in range(1, 201):
        fresh.append(make_datum(problem, problem.datum_kernel, seed=seed))
        pair.fhat(fresh[-1], mu)
        pair.fhat(first, mu)  # kept recent, so never evicted
        assert len(pair._hats) <= transforms._HATS_MAX
    assert len(pair._hats) == transforms._HATS_MAX
    assert (id(first), 0) in pair._hats
    assert (id(fresh[-1]), 0) in pair._hats
    assert (id(fresh[0]), 0) not in pair._hats


def test_verify_problem_never_rebuilds_a_transform(catalog, monkeypatch):
    """One verify_problem builds each (datum, derivative) transform once:
    the bounded cache evicts nothing that the run asks for again."""
    built = []

    class Counting(SupportTransform):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    keys = set()
    fhat = TransformPair.fhat

    def recording(self, datum, mu, deriv=0):
        keys.add((id(datum), deriv))
        return fhat(self, datum, mu, deriv)

    monkeypatch.setattr(transforms, "SupportTransform", Counting)
    monkeypatch.setattr(TransformPair, "fhat", recording)
    results = verify_problem(catalog["heat-neumann"])
    assert all_passed(results)
    assert len(keys) <= transforms._HATS_MAX
    assert len(built) == len(keys)


def test_real_axis_tails_mirror_identity():
    """The left-ray tail is the mirrored conjugate of the right one, to
    1e-14 relative, so one exponential integral per point gives the
    two-ray real-axis tail."""
    xs = np.linspace(0.05, 1.0, 12)
    for r0 in (2.0, 3.7):
        for p in range(1, 6):
            right = np.array([ray_monomial_tail(0.0, r0, x, p) for x in xs])
            left = np.array([ray_monomial_tail(np.pi, r0, x, p) for x in xs])
            np.testing.assert_allclose(left, (-1.0) ** (1 - p) * np.conj(right),
                                       rtol=1e-14, atol=0)
            got = transforms._real_axis_monomial_tails(r0, xs, p)
            # right - left cancels to one real or imaginary part, so the
            # comparison is relative to the size of a ray tail
            np.testing.assert_allclose(got, right - left, rtol=0,
                                       atol=1e-14 * np.abs(right).max())


def test_fhat_derivative_streams(get_pair, get_datum):
    """fhat(deriv=k) transforms the k-th derivative; fhat_applied adds the
    operator factor (-i)^n."""
    pair = get_pair("heat-dirichlet")
    datum = get_datum("heat-dirichlet")
    mu = 2.4 - 0.7j
    got = pair.fhat(datum, np.array([mu]), deriv=1)[0]
    ref = adaptive_reference(
        lambda z: np.exp(-1j * mu * z) * datum.derivative(1, float(np.real(z))),
        [0.0, datum.support], tol=1e-13)
    assert abs(got - ref.value) < 1e-9

    mun = np.array([1.3 + 0.4j])
    np.testing.assert_allclose(pair.fhat_applied(datum, mun),
                               (-1j) ** 2 * pair.fhat(datum, mun, deriv=2),
                               atol=0)


def test_fhat_reflection_symmetry(get_pair, get_datum):
    """Real data give fhat(-lam) = conj(fhat(lam)) on the real axis."""
    pair = get_pair("lkdv-dirichlet")
    datum = get_datum("lkdv-dirichlet")
    lam = np.array([0.9, 4.2, 17.0])
    plus = pair.fhat(datum, lam.astype(complex))
    minus = pair.fhat(datum, -lam.astype(complex))
    np.testing.assert_allclose(minus, np.conj(plus), rtol=0, atol=1e-13)


def test_forward_zero_component_is_scaled_fhat(get_pair, get_datum):
    pair = get_pair("heat-neumann")
    datum = get_datum("heat-neumann")
    lam = np.array([0.5 + 0.1j, -3.0 + 2.0j])
    np.testing.assert_allclose(pair.forward(datum, 0, lam),
                               pair.fhat(datum, lam) / (2.0 * np.pi), atol=0)


def test_forward_sector_integrates_kernel(get_pair, get_datum):
    """F_k[f](lam) equals int_0^L kernel(k, lam, y) f(y) dy, tying the
    weighted-transform evaluation to the kernel definition."""
    pair = get_pair("lkdv-dirichlet")
    datum = get_datum("lkdv-dirichlet")
    for lam in (1.7 + 0.3j, -0.8 + 0.9j):
        got = pair.forward(datum, 1, np.array([lam]))[0]
        ref = adaptive_reference(
            lambda z: pair.kernel(1, lam, float(np.real(z)))
            * datum.value(float(np.real(z))),
            [0.0, datum.support], tol=1e-13)
        assert abs(got - ref.value) < 1e-9, lam


def test_forward_amplitude_linearity(get_pair, get_datum, catalog):
    """Transforms scale linearly with the datum amplitude."""
    from halfline.datum import make_datum
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
    vals = pair.gamma_k_vanishing(datum, 1, np.array([0.3, 0.9]))
    assert vals.max() < 1e-6


def test_unconverged_real_axis_ray_raises(catalog, get_datum):
    """A real-axis sector ray whose tail acceleration does not converge
    within the block budget raises instead of returning its partial sum."""
    pair = TransformPair(catalog["reverse-lkdv"], QuadratureParams(max_blocks=3))
    datum = get_datum("reverse-lkdv")
    xs = np.array([0.3, 0.7])
    for k in (1, 2):
        assert any(seg.on_real_axis for seg in pair.contours.gammas[k - 1])
        with pytest.raises(ToleranceNotMet, match="did not converge"):
            pair.sector_component(datum, k, xs)


@pytest.mark.parametrize("name", ["heat-dirichlet", "robin-4"])
def test_real_line_component_monomials_below_indentation_vanish(get_pair, name):
    """int exp(i lam x) lam^-p over the real line indented above its pole
    is zero (close the contour upward).  Central nodes and exact tails
    reproduce that; rounding around the indentation, where |lam^-p| is
    delta^-p, sets the floor 1e-15 delta^-p (1e-12 for p <= 3 at
    delta = 0.1)."""
    pair = get_pair(name)
    delta = pair.contours.delta
    xs = np.array([0.1, 1.0, 7.5])
    for p in range(1, 6):
        got = pair.real_line_component(None, xs, float(xs.max()) + 1.0,
                                       monomials=[(p, 1.0)], indented=True)
        assert np.abs(got).max() < 1e-15 * delta ** -p, p


def test_real_line_component_restores_residue_above_indentation(get_pair):
    """i / (lam - i/2) keeps the real-data symmetry and its pole lies above
    the contour, so the integral is the residue -2 pi exp(-x/2); its first
    four powers i (i/2)^k lam^-(k+1) are subtracted for the tail scan and
    restored exactly."""
    pair = get_pair("heat-dirichlet")
    xs = np.array([0.5, 1.0, 2.0])
    monomials = [(k + 1, 1j * (0.5j) ** k) for k in range(4)]
    got = pair.real_line_component(lambda lam: 1j / (lam - 0.5j), xs,
                                   float(xs.max()) + 1.0,
                                   monomials=monomials, indented=True)
    np.testing.assert_allclose(got, -2.0 * np.pi * np.exp(-xs / 2.0),
                               rtol=0, atol=1e-10)
