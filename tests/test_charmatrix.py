"""Characteristic matrix: determinant polynomial, roots, cofactor identity."""

import numpy as np
import pytest

from halfline.charmatrix import CharMatrix, DeltaRoot
from halfline.errors import DeltaIdenticallyZero, OnDeltaZero


def _random_char(n: int, m: int, seed: int) -> CharMatrix:
    rng = np.random.default_rng(seed)
    return CharMatrix(n, rng.standard_normal((m, n)))


def test_entry_matches_definition(catalog):
    """M[k, j](lam) = sum_r (-i alpha^(k-1) lam)^r b*[j, r]."""
    cm = CharMatrix.from_problem(catalog["robin-4"])
    rng = np.random.default_rng(3)
    lams = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    for k in range(1, cm.m + 1):
        for j in range(1, cm.m + 1):
            want = sum((-1j * cm.alpha ** (k - 1) * lams) ** r * cm.b_star[j - 1, r]
                       for r in range(cm.n))
            np.testing.assert_allclose(cm.entry(k, j, lams), want, rtol=1e-12)


def test_eval_matrix_and_delta_consistency():
    """delta agrees with det of eval_matrix and with the fitted polynomial."""
    cm = _random_char(5, 3, seed=11)
    rng = np.random.default_rng(4)
    lams = 2.0 * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
    direct = cm.delta(lams)
    np.testing.assert_allclose(direct, np.linalg.det(cm.eval_matrix(lams)),
                               rtol=1e-12)
    np.testing.assert_allclose(direct,
                               np.polynomial.polynomial.polyval(lams, cm.delta_poly),
                               rtol=1e-8, atol=1e-8 * np.abs(direct).max())


def test_cofactor_identity_catalog(catalog):
    """sum_l (-1)^((m-1)(l+j)) det X[l,j] M[l,r] = Delta delta_{j,r} on the
    built-in problems at random points."""
    rng = np.random.default_rng(7)
    for prob in catalog.values():
        cm = CharMatrix.from_problem(prob)
        lams = 3.0 * (rng.standard_normal(5) + 1j * rng.standard_normal(5))
        dl = cm.delta(lams)
        scale = np.abs(dl) + 1.0
        for j in range(1, cm.m + 1):
            for r in range(1, cm.m + 1):
                acc = sum((-1.0) ** ((cm.m - 1) * (l + j))
                          * cm.cofactor_det(l, j, lams) * cm.entry(l, r, lams)
                          for l in range(1, cm.m + 1))
                want = dl if j == r else 0.0
                assert np.abs(acc - want).max() < 1e-9 * scale.max(), prob.label


def test_cofactor_identity_synthetic():
    """The cyclic cofactor identity is purely algebraic and must hold for
    arbitrary coefficient matrices."""
    rng = np.random.default_rng(19)
    for n, m, seed in ((5, 3, 23), (7, 4, 41)):
        cm = _random_char(n, m, seed)
        lams = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        dl = cm.delta(lams)
        scale = np.abs(dl).max() + 1.0
        for j in range(1, m + 1):
            for r in range(1, m + 1):
                acc = sum((-1.0) ** ((m - 1) * (l + j))
                          * cm.cofactor_det(l, j, lams) * cm.entry(l, r, lams)
                          for l in range(1, m + 1))
                want = dl if j == r else 0.0
                assert np.abs(acc - want).max() < 1e-9 * scale


def test_cofactor_reduces_to_one_for_single_form():
    cm = _random_char(3, 1, seed=2)
    lams = np.array([0.4 + 0.1j, -1.0 + 2.0j])
    np.testing.assert_allclose(cm.cofactor_det(1, 1, lams), 1.0, atol=0)
    np.testing.assert_allclose(cm.delta(lams), cm.entry(1, 1, lams), rtol=1e-14)


def test_delta_roots_catalog(catalog):
    """Root sets with multiplicities for the built-in problems."""
    def root_dict(prob):
        cm = CharMatrix.from_problem(prob)
        return {(round(r.value.real, 6), round(r.value.imag, 6)): r.multiplicity
                for r in cm.delta_roots}

    assert root_dict(catalog["lkdv-dirichlet"]) == {(0.0, 0.0): 1}
    assert root_dict(catalog["reverse-lkdv"]) == {}
    assert root_dict(catalog["heat-dirichlet"]) == {}
    assert root_dict(catalog["heat-neumann"]) == {(0.0, 0.0): 1}

    robin = root_dict(catalog["robin-4"])
    assert robin[(0.0, 0.0)] == 2
    assert robin[(-2.0, -2.0)] == 1
    assert robin[(1.5, 1.5)] == 1
    assert len(robin) == 3
    # every root inside |lam| < 4
    cmr = CharMatrix.from_problem(catalog["robin-4"])
    assert all(abs(r.value) < 4.0 for r in cmr.delta_roots)


def test_choose_radius(catalog):
    """Radius clears the largest root by the safety factor, floor one."""
    cm = CharMatrix.from_problem(catalog["robin-4"])
    rmax = max(abs(r.value) for r in cm.delta_roots)
    assert cm.choose_radius() == pytest.approx(1.1 * rmax)
    assert cm.choose_radius(1.3) == pytest.approx(1.3 * rmax)
    # rootless and root-at-origin cases hit the unit floor
    for name in ("heat-dirichlet", "heat-neumann", "lkdv-dirichlet"):
        assert CharMatrix.from_problem(catalog[name]).choose_radius() == 1.1


def test_delta_roots_annihilate_determinant(catalog):
    """Reported roots are actual zeros of the directly evaluated Delta."""
    for name in ("lkdv-dirichlet", "robin-4", "heat-neumann"):
        cm = CharMatrix.from_problem(catalog[name])
        for root in cm.delta_roots:
            assert isinstance(root, DeltaRoot)
            assert abs(cm.delta(np.array([root.value]))[0]) < 1e-8


def test_guard_delta_raises_on_zero(catalog):
    """Evaluating kernel denominators on a determinant zero is refused."""
    cm = CharMatrix.from_problem(catalog["robin-4"])
    with pytest.raises(OnDeltaZero):
        cm.guard_delta(np.array([0.0 + 0.0j]))
    with pytest.raises(OnDeltaZero):
        cm.guard_delta(np.array([-2.0 - 2.0j]))
    vals = cm.guard_delta(np.array([5.0 + 1.0j]))
    assert np.all(np.abs(vals) > 0.0)


def test_identically_zero_determinant_detected():
    """A zero coefficient matrix has Delta = 0 and raises on interpolation."""
    cm = CharMatrix(3, np.zeros((2, 3)))
    with pytest.raises(DeltaIdenticallyZero):
        _ = cm.delta_poly


def test_delta_poly_tracks_outlying_roots():
    """The interpolation radius grows until it encloses all roots."""
    # entry lam^4 - 10000: roots at |lam| = 10, far outside the initial radius
    cm = CharMatrix(5, np.array([[-10000.0, 0.0, 0.0, 0.0, 1.0]]))
    roots = cm.delta_roots
    assert len(roots) == 4
    np.testing.assert_allclose(sorted(abs(r.value) for r in roots),
                               [10.0] * 4, rtol=1e-6)
