"""Characteristic matrix: determinant polynomial, roots, cofactor identity."""

import mpmath
import numpy as np
import pytest

from halfline.charmatrix import CharMatrix, DeltaRoot
from halfline.errors import DeltaIdenticallyZero, OnDeltaZero
from halfline.problems import HalfLineProblem
from halfline.transforms import TransformPair


def _cm(problem) -> CharMatrix:
    return TransformPair(problem).cm


def _random_char(n: int, m: int, seed: int) -> CharMatrix:
    rng = np.random.default_rng(seed)
    return CharMatrix(n, rng.standard_normal((m, n)))


def test_entry_matches_definition(catalog):
    """M[k, j](lam) = sum_r (-i alpha^(k-1) lam)^r b*[j, r]."""
    cm = _cm(catalog["robin-4"])
    rng = np.random.default_rng(3)
    lams = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    for k in range(1, cm.m + 1):
        for j in range(1, cm.m + 1):
            want = sum((-1j * cm.alpha ** (k - 1) * lams) ** r * cm.b_star[j - 1, r]
                       for r in range(cm.n))
            np.testing.assert_allclose(cm.entry(k, j, lams), want, rtol=1e-12)


def test_eval_matrix_and_delta_consistency():
    """delta agrees with det of eval_matrix and with the expanded polynomial."""
    cm = _random_char(5, 3, seed=11)
    rng = np.random.default_rng(4)
    lams = 2.0 * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
    direct = cm.delta(lams)
    np.testing.assert_allclose(direct, np.linalg.det(cm.eval_matrix(lams)),
                               rtol=1e-12)
    np.testing.assert_allclose(direct,
                               np.polynomial.polynomial.polyval(lams, cm.delta_poly),
                               rtol=1e-8, atol=1e-8 * np.abs(direct).max())


def _window_det(cm: CharMatrix, l: int, j: int, lam) -> np.ndarray:
    """det X[l, j](lam), 1-based l, j, written out from its definition: the
    (m-1) x (m-1) window of the doubled block [[M, M], [M, M]] anchored one
    step below and right of entry (l, j)."""
    M = cm.eval_matrix(lam)
    doubled = np.concatenate([np.concatenate([M, M], axis=-1)] * 2, axis=-2)
    return np.linalg.det(doubled[..., l:l + cm.m - 1, j:j + cm.m - 1])


def _identity_residual(cm: CharMatrix, lams) -> np.ndarray:
    """|A(lam) M(lam) - Delta(lam) I| entrywise."""
    eye = cm.delta(lams)[..., None, None] * np.eye(cm.m)
    return np.abs(cm.cofactors(lams) @ cm.eval_matrix(lams) - eye)


def test_cofactor_identity_catalog(catalog):
    """A(lam) M(lam) = Delta(lam) I, A the signed cyclic cofactor matrix, on
    the built-in problems at random points."""
    rng = np.random.default_rng(7)
    for prob in catalog.values():
        cm = _cm(prob)
        lams = 3.0 * (rng.standard_normal(5) + 1j * rng.standard_normal(5))
        scale = np.abs(cm.delta(lams)) + 1.0
        assert _identity_residual(cm, lams).max() < 1e-9 * scale.max(), prob.label


def test_cofactor_identity_synthetic():
    """The cyclic cofactor identity is purely algebraic and must hold for
    arbitrary coefficient matrices."""
    rng = np.random.default_rng(19)
    for n, m, seed in ((5, 3, 23), (7, 4, 41)):
        cm = _random_char(n, m, seed)
        lams = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        scale = np.abs(cm.delta(lams)).max() + 1.0
        assert _identity_residual(cm, lams).max() < 1e-9 * scale


def test_cofactor_det_matches_explicit_windows():
    """cofactor_det(l, j) is the determinant of the doubled-block window for
    every (l, j), m = 1..4, including the empty window of m = 1."""
    rng = np.random.default_rng(29)
    for n, m in ((3, 1), (4, 2), (5, 3), (7, 4)):
        cm = _random_char(n, m, seed=n + m)
        lams = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        for l in range(1, m + 1):
            for j in range(1, m + 1):
                np.testing.assert_allclose(cm.cofactor_det(l, j, lams),
                                           _window_det(cm, l, j, lams),
                                           rtol=1e-14, atol=0)


@pytest.mark.parametrize("n, a, B", [
    (5, -1j, [[1, 0, 0, 0, 0], [0, 1, 1, 0, 0]]),
    (6, 1.0, [[1, 0, 0, 0, 0, 0], [0, 1, 0, 1, 0, 0], [0, 0, 1, 0, 0, 1]])])
def test_kernel_weights_order_five_and_six(n, a, B):
    """At m = 3, beyond the catalog, every sector's weights equal the
    explicit sum_j (-1)^((m-1)(l+j)) det X[l,j](mu) M[1,j](lam)
    / (2 pi Delta(mu)), mu = alpha^(N+1-k) lam."""
    pair = TransformPair(HalfLineProblem(n, a, B))
    cm = pair.cm
    assert cm.m == 3
    rng = np.random.default_rng(n)
    lams = rng.uniform(1.5, 3.0, 12) * np.exp(2j * np.pi * rng.uniform(0, 1, 12))
    for k in range(1, pair.N + 1):
        mu = pair.alpha ** (pair.N + 1 - k) * lams
        want = np.array([
            sum((-1.0) ** ((cm.m - 1) * (l + j)) * _window_det(cm, l, j, mu)
                * cm.entry(1, j, lams) for j in range(1, cm.m + 1))
            for l in range(1, cm.m + 1)]) / (2.0 * np.pi * cm.delta(mu))
        mults, got = pair.kernel_weights(k, lams)
        np.testing.assert_allclose(
            mults.ravel(), pair.alpha ** (pair.N + np.arange(1, cm.m + 1) - k))
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), k


def test_cofactor_reduces_to_one_for_single_form():
    cm = _random_char(3, 1, seed=2)
    lams = np.array([0.4 + 0.1j, -1.0 + 2.0j])
    np.testing.assert_allclose(cm.cofactor_det(1, 1, lams), 1.0, atol=0)
    np.testing.assert_allclose(cm.delta(lams), cm.entry(1, 1, lams), rtol=1e-14)


def test_delta_roots_catalog(catalog):
    """Root sets with multiplicities for the built-in problems."""
    def root_dict(prob):
        cm = _cm(prob)
        return {(round(r.value.real, 6), round(r.value.imag, 6)): r.multiplicity
                for r in cm.delta_roots}

    assert root_dict(catalog["lkdv-dirichlet"]) == {(0.0, 0.0): 1}
    assert root_dict(catalog["reverse-lkdv"]) == {}
    assert root_dict(catalog["heat-dirichlet"]) == {}
    assert root_dict(catalog["heat-neumann"]) == {(0.0, 0.0): 1}

    # Delta = -2i lam^2 (lam + 2 + 2i)(lam - 1.5 - 1.5i), roots to rounding
    robin = sorted(_cm(catalog["robin-4"]).delta_roots, key=lambda r: r.value.real)
    assert [r.multiplicity for r in robin] == [1, 2, 1]
    assert robin[1].value == 0.0
    assert abs(robin[0].value - (-2.0 - 2.0j)) <= 4e-15
    assert abs(robin[2].value - (1.5 + 1.5j)) <= 4e-15


def _mp_delta_poly(cm: CharMatrix) -> np.ndarray:
    """The m(n-1) + 1 coefficients of det M, from 40-digit values of the
    determinant at as many roots of unity."""
    size = cm.m * (cm.n - 1) + 1
    with mpmath.workdps(40):
        alpha = mpmath.expjpi(mpmath.mpf(2) / cm.n)
        b_star = [[mpmath.mpc(complex(b)) for b in row] for row in cm.b_star]

        def det(lam):
            return mpmath.det(mpmath.matrix(
                [[sum((-1j * alpha ** k * lam) ** r * b_star[j][r]
                      for r in range(cm.n)) for j in range(cm.m)]
                 for k in range(cm.m)]))

        w = [mpmath.expjpi(mpmath.mpf(2 * p) / size) for p in range(size)]
        vals = [det(z) for z in w]
        return np.array([complex(sum(v * z ** -q for v, z in zip(vals, w)) / size)
                         for q in range(size)])


@pytest.mark.parametrize("n, a, B", [
    (5, -1j, [[1, 0, 0, 0, 0], [0, 1, 1, 0, 0]]),
    (6, 1.0, [[1, 0, 0, 0, 0, 0], [0, 1, 0, 1, 0, 0], [0, 0, 1, 0, 0, 1]])],
    ids=["order5", "order6"])
def test_delta_roots_triple_root_at_origin(n, a, B):
    """Delta = lam^3 (...) at m = 3: the lam^0..lam^2 coefficients are
    zero, so the origin is one root of multiplicity 3 instead of three
    simple roots spread by eps^(1/3) near |lam| = 3e-5.  Every coefficient
    is within 1e-14 of the largest of those that a 40-digit discrete
    Fourier transform of det M on the unit circle gives."""
    cm = _cm(HalfLineProblem(n, a, B))
    assert cm.m == 3
    want = _mp_delta_poly(cm)
    got = cm.delta_poly
    assert np.abs(want[got.size:]).max() <= 1e-30
    assert np.abs(got - want[:got.size]).max() <= 1e-14 * np.abs(want).max()
    np.testing.assert_array_equal(cm.delta_poly[:3], 0.0)
    near = [r for r in cm.delta_roots if abs(r.value) < 0.1]
    assert near == [DeltaRoot(0j, 3)]
    assert sum(r.multiplicity for r in cm.delta_roots) == cm.delta_poly.size - 1


def test_choose_radius(catalog):
    """Radius clears the largest root by the factor 1.1, floor one."""
    cm = _cm(catalog["robin-4"])
    rmax = max(abs(r.value) for r in cm.delta_roots)
    assert cm.choose_radius() == pytest.approx(1.1 * rmax)
    # rootless and root-at-origin cases hit the unit floor
    for name in ("heat-dirichlet", "heat-neumann", "lkdv-dirichlet"):
        assert _cm(catalog[name]).choose_radius() == 1.1


def test_delta_roots_annihilate_determinant(catalog):
    """Reported roots are actual zeros of the directly evaluated Delta."""
    for name in ("lkdv-dirichlet", "robin-4", "heat-neumann"):
        cm = _cm(catalog[name])
        for root in cm.delta_roots:
            assert isinstance(root, DeltaRoot)
            assert abs(cm.delta(np.array([root.value]))[0]) < 1e-8


def test_guard_delta_raises_on_zero(catalog):
    """Evaluating kernel denominators on a determinant zero is refused."""
    cm = _cm(catalog["robin-4"])
    with pytest.raises(OnDeltaZero):
        cm.guard_delta(np.array([0.0 + 0.0j]))
    with pytest.raises(OnDeltaZero):
        cm.guard_delta(np.array([-2.0 - 2.0j]))
    vals = cm.guard_delta(np.array([5.0 + 1.0j]))
    assert np.all(np.abs(vals) > 0.0)


def test_identically_zero_determinant_detected():
    """A zero coefficient matrix has Delta = 0, and expanding it raises."""
    cm = CharMatrix(3, np.zeros((2, 3)))
    with pytest.raises(DeltaIdenticallyZero):
        _ = cm.delta_poly


def test_delta_poly_drops_rounding_noise_in_adjoint_forms():
    """Row reduction leaves b* = (1/3, 1, 0.3 - 0.1 * 3) with the last entry
    -5.6e-17 instead of 0, so the expansion carries a lam^2 term of that
    size.  Judged against the largest term it is noise: Delta keeps its one
    root -i/3 and the radius its floor, not a spurious root near 5e16."""
    cm = _cm(HalfLineProblem(3, 1j, [[1.0, 0.1, 0.3], [0.0, 1.0, 3.0]]))
    assert cm.b_star[0, 2] != 0.0
    assert cm.delta_poly.size == 2
    (root,) = cm.delta_roots
    assert root.multiplicity == 1
    assert abs(root.value + 1j / 3) <= 1e-15
    assert cm.choose_radius() == 1.1


def test_delta_poly_tracks_outlying_roots():
    """Roots far outside the unit circle come out of the expansion
    whole."""
    # entry lam^4 - 10000: roots at |lam| = 10
    cm = CharMatrix(5, np.array([[-10000.0, 0.0, 0.0, 0.0, 1.0]]))
    roots = cm.delta_roots
    assert len(roots) == 4
    np.testing.assert_allclose(sorted(abs(r.value) for r in roots),
                               [10.0] * 4, rtol=1e-6)
