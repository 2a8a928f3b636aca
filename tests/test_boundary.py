"""Concomitant algebra, adjoint boundary forms, and system completion."""

import numpy as np
import pytest
from scipy import integrate

from halfline.boundary import (
    complementary_forms,
    concomitant_matrix,
    concomitant_value,
    kernel_basis,
    rref,
)
from halfline.errors import KernelComputationFailed


def test_concomitant_matrix_order_two():
    """For n = 2 the concomitant matrix is the antidiagonal [[0, 1], [-1, 0]]."""
    np.testing.assert_allclose(concomitant_matrix(2),
                               np.array([[0.0, 1.0], [-1.0, 0.0]]), atol=0)


def test_concomitant_value_order_three():
    """[f phi](0) for n = 3 and u(f) = u(phi) = (1, 2, 3) equals 2i."""
    val = concomitant_value(3, (1.0, 2.0, 3.0), (1.0, 2.0, 3.0))
    assert val == pytest.approx(2j, abs=1e-14)


def _exp_jet(c: complex, n: int) -> np.ndarray:
    """Boundary derivatives of exp(-c x): u_k = (-c)^k."""
    return np.array([(-c) ** k for k in range(n)], dtype=complex)


def test_concomitant_is_integration_by_parts_boundary_term():
    """int (Sf) conj(phi) - int f conj(S phi) over the half line equals
    -[f phi](0), with S = (-i d/dx)^n, for exponentially decaying f, phi.

    With f = exp(-c x) and phi = exp(-d x), Re c, Re d > 0, both integrals
    have closed forms: the difference must be ((ic)^n - conj((id)^n))
    / (c + conj(d))."""
    rng = np.random.default_rng(31)
    for n in (2, 3, 4, 5):
        for _ in range(8):
            c = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
            d = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
            lhs = ((1j * c) ** n - np.conj((1j * d) ** n)) / (c + np.conj(d))
            rhs = -concomitant_value(n, _exp_jet(c, n), _exp_jet(d, n))
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_boundary_term_closed_form_against_quadrature():
    """The exponential closed form used above is itself checked once by
    direct numerical integration (n = 3, S = (-i d/dx)^3 = i d^3/dx^3)."""
    c, d = 1.3 + 0.4j, 0.8 - 0.2j
    n = 3
    Sf = lambda x: 1j * (-c) ** 3 * np.exp(-c * x)
    Sphi = lambda x: 1j * (-d) ** 3 * np.exp(-d * x)
    i1, _ = integrate.quad(lambda x: Sf(x) * np.conj(np.exp(-d * x)),
                           0.0, 60.0, complex_func=True)
    i2, _ = integrate.quad(lambda x: np.exp(-c * x) * np.conj(Sphi(x)),
                           0.0, 60.0, complex_func=True)
    expected = -concomitant_value(n, _exp_jet(c, n), _exp_jet(d, n))
    assert abs((i1 - i2) - expected) < 1e-9


def test_adjoint_forms_catalog(catalog):
    """Adjoint matrices for the built-in problems match hand derivations."""
    expected = {
        "lkdv-dirichlet": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
        "reverse-lkdv": [[1.0, 0.0, 0.0]],
        "heat-dirichlet": [[1.0, 0.0]],
        "heat-neumann": [[0.0, 1.0]],
        "robin-4": [[3.0, 1.0, 0.0, 0.0], [0.0, 0.0, -2.0, 1.0]],
    }
    for name, mat in expected.items():
        prob = catalog[name]
        got = complementary_forms(prob.order, prob.boundary_matrix).B_star
        np.testing.assert_allclose(got, np.array(mat, dtype=complex), atol=1e-12)


def test_adjoint_annihilates_kernel_pairs():
    """Every f in ker B pairs to zero concomitant with every phi in ker B*."""
    rng = np.random.default_rng(5)
    for n, nforms in ((2, 1), (3, 1), (3, 2), (4, 2), (5, 3), (6, 3)):
        for _ in range(5):
            B = rng.standard_normal((nforms, n))
            if np.linalg.matrix_rank(B) < nforms:
                continue
            Bs = complementary_forms(n, B).B_star
            assert Bs.shape == (n - nforms, n)
            K = kernel_basis(B)
            Ks = kernel_basis(Bs)
            for u in K.T:
                for v in Ks.T:
                    assert abs(concomitant_value(n, u, v)) < 1e-10


def test_adjoint_is_an_involution_on_row_spans():
    """Taking adjoint forms twice returns the original row span."""
    rng = np.random.default_rng(13)
    for n, nforms in ((3, 1), (4, 2), (5, 2), (6, 3)):
        B = rng.standard_normal((nforms, n))
        Bs = complementary_forms(n, B).B_star
        Bss = complementary_forms(n, Bs).B_star
        assert Bss.shape == B.shape
        stacked = np.vstack([B, Bss])
        assert np.linalg.matrix_rank(stacked, tol=1e-9) == nforms


def test_completion_green_identity(catalog):
    """-C = B^T conj(B_c*) + B_c^T conj(B*) holds for catalog and random B."""
    cases = [(p.order, p.boundary_matrix) for p in catalog.values()]
    rng = np.random.default_rng(17)
    for n, nforms in ((4, 2), (5, 3), (6, 2)):
        cases.append((n, rng.standard_normal((nforms, n))))
    for n, B in cases:
        forms = complementary_forms(n, B)
        C = concomitant_matrix(n)
        green = (forms.B.T @ np.conj(forms.B_c_star)
                 + forms.B_c.T @ np.conj(forms.B_star))
        np.testing.assert_allclose(green, -C, atol=1e-10)
        assert forms.T.shape == (n, n)
        assert np.linalg.cond(forms.T) < 1e12


def test_completed_system_transforms_green_vectors():
    """The Green identity, contracted with boundary jets, reproduces the
    concomitant: -[f phi](0) = (Bu).(B_c* v) + (B_c u).(B* v)."""
    rng = np.random.default_rng(29)
    n = 4
    B = rng.standard_normal((2, n))
    forms = complementary_forms(n, B)
    for _ in range(10):
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        lhs = -concomitant_value(n, u, v)
        rhs = ((forms.B @ u) @ np.conj(forms.B_c_star @ v)
               + (forms.B_c @ u) @ np.conj(forms.B_star @ v))
        assert abs(lhs - rhs) < 1e-10


def test_rref_identity_and_pivots():
    """rref of an invertible matrix is the identity with all columns pivotal."""
    A = np.array([[2.0, 1.0], [1.0, 3.0]])
    R, piv = rref(A)
    np.testing.assert_allclose(R, np.eye(2), atol=1e-14)
    assert piv == [0, 1]


def test_kernel_basis_columns_and_rank_failure():
    """kernel_basis returns B-annihilated unit-tagged columns; a dependent
    row system raises KernelComputationFailed."""
    B = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    K = kernel_basis(B)
    assert K.shape == (3, 1)
    np.testing.assert_allclose(K[:, 0], [0.0, 0.0, 1.0], atol=0)
    np.testing.assert_allclose(B @ K, 0.0, atol=1e-14)

    with pytest.raises(KernelComputationFailed):
        kernel_basis(np.array([[1.0, 2.0], [2.0, 4.0]]))
