"""Problem classification, admissibility, validation, and the catalog."""

import dataclasses

import numpy as np
import pytest

from halfline.boundary import maximal_kernel
from halfline.errors import (
    ComplexCoefficientsDisallowed,
    InadmissibleDispersion,
    RankDeficientBoundary,
    WrongConditionCount,
)
from halfline.problems import HalfLineProblem, classify, validate
from halfline.verify import data_trio


def test_classify_counts_follow_order_parity():
    """N = n/2 for even n; (n+1)/2 at a = i and (n-1)/2 at a = -i for odd n."""
    for n in range(2, 9):
        if n % 2 == 0:
            assert classify(n, 1.0).count == n // 2
            assert classify(n, 1j).count == n // 2
        else:
            assert classify(n, 1j).count == (n + 1) // 2
            assert classify(n, -1j).count == (n - 1) // 2


def test_classify_admissibility_rules():
    """Even order needs Re(a) >= 0; odd order needs a = +-i; |a| = 1 always."""
    aset = [1.0, -1.0, 1j, -1j, np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 6)]
    for n in range(2, 9):
        for a in aset:
            info = classify(n, a)
            if n % 2 == 0:
                expect = complex(a).real >= -1e-12
            else:
                expect = abs(a - 1j) < 1e-12 or abs(a + 1j) < 1e-12
            assert info.admissible == expect, (n, a)
            assert info.order == n and info.a == complex(a)


def test_classify_reasons_and_modulus():
    """Inadmissible outcomes carry a human-readable reason string."""
    assert classify(2, 2.0).reason == "|a| must equal 1"
    assert not classify(2, 2.0).admissible
    assert classify(4, -1.0).reason == "Re(a) < 0 for even order"
    assert classify(3, 1.0).reason == "odd order requires a = +-i"
    assert classify(2, 1.0).reason == ""


def test_classify_rejects_low_order():
    """Spatial order below two has no boundary-count rule."""
    with pytest.raises(WrongConditionCount):
        classify(1, 1j)
    with pytest.raises(WrongConditionCount):
        classify(0, 1.0)


def test_validate_accepts_catalog(catalog):
    """Every catalog problem validates and reports the classified count."""
    for prob in catalog.values():
        assert validate(prob) is prob
        assert prob.count == classify(prob.order, prob.a).count
        assert prob.boundary_matrix.shape == (prob.count, prob.order)
        assert abs(abs(prob.a) - 1.0) < 1e-12


def test_validate_rejects_inadmissible_dispersion():
    with pytest.raises(InadmissibleDispersion):
        validate(HalfLineProblem(3, 1.0, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    with pytest.raises(InadmissibleDispersion):
        validate(HalfLineProblem(2, -1.0, [[1.0, 0.0]]))


def test_validate_rejects_wrong_condition_count():
    # n = 3 with a = -i needs exactly one form
    with pytest.raises(WrongConditionCount):
        validate(HalfLineProblem(3, -1j, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    # and a = +i needs two
    with pytest.raises(WrongConditionCount):
        validate(HalfLineProblem(3, 1j, [[1.0, 0.0, 0.0]]))


def test_validate_rejects_dependent_rows():
    with pytest.raises(RankDeficientBoundary):
        validate(HalfLineProblem(4, 1.0, [[1.0, 1.0, 0.0, 0.0],
                                          [2.0, 2.0, 0.0, 0.0]]))


def test_complex_coefficients_need_opt_in():
    """Complex boundary rows raise unless allow_complex is set."""
    B = [[1.0, 1j]]
    with pytest.raises(ComplexCoefficientsDisallowed):
        validate(HalfLineProblem(2, 1.0, B))
    prob = HalfLineProblem(2, 1.0, B, allow_complex=True)
    assert validate(prob) is prob


def test_catalog_contents(catalog):
    """The catalog holds the five named problems with coherent kernels."""
    assert set(catalog) == {"lkdv-dirichlet", "reverse-lkdv", "heat-dirichlet",
                            "heat-neumann", "robin-4"}
    assert catalog["lkdv-dirichlet"].order == 3
    assert catalog["lkdv-dirichlet"].a == -1j
    assert catalog["reverse-lkdv"].a == 1j
    assert catalog["robin-4"].order == 4
    assert catalog["robin-4"].a == pytest.approx(np.exp(-1j * np.pi / 6))
    for prob in catalog.values():
        # datum kernel coefficients satisfy the boundary forms exactly
        u = np.asarray(prob.datum_kernel, dtype=complex)
        assert u.size == prob.order
        assert np.all(prob.boundary_matrix @ u == 0.0), prob.label


def test_maximal_kernel_reproduces_catalog_kernels(catalog):
    """Each catalog ``datum_kernel`` is the maximal kernel of its boundary
    forms, the sum of the ``kernel_basis`` columns of B scaled to max
    modulus 1; the tuples are written out because they fix the data of
    every catalog run.  A problem outside the catalog, heat-Robin, derives
    a kernel that meets its boundary form, and so does its maximal datum."""
    assert {name: prob.datum_kernel for name, prob in catalog.items()} == {
        "lkdv-dirichlet": (0.0, 1.0, 1.0),
        "reverse-lkdv": (0.0, 0.0, 1.0),
        "heat-dirichlet": (0.0, 1.0),
        "heat-neumann": (1.0, 0.0),
        "robin-4": (0.5, 1.0, -1.0 / 3.0, 1.0),
    }
    robin = HalfLineProblem(2, 1.0, [[2.0, 1.0]], label="heat-robin")
    assert robin.datum_kernel == maximal_kernel(robin.boundary_matrix)
    kernel = np.asarray(robin.datum_kernel)
    assert kernel.shape == (robin.order,)
    assert np.abs(robin.boundary_matrix @ kernel).max() <= 1e-12
    assert np.abs(kernel).max() == 1.0
    derivs = data_trio(robin)[0].boundary_derivatives(robin.order)
    assert np.abs(robin.boundary_matrix @ derivs).max() <= 1e-12
    assert np.all(derivs != 0.0)


def test_problem_holds_order_a_and_boundary_forms_only():
    """A problem's fields are (n, a, B), its label and the complex switch;
    ``datum_kernel`` is derived from B, neither passed in nor assignable."""
    assert [f.name for f in dataclasses.fields(HalfLineProblem)] == [
        "order", "a", "boundary_matrix", "label", "allow_complex"]
    with pytest.raises(TypeError):
        HalfLineProblem(2, 1.0, [[1, 0]], datum_kernel=(0, 1))
    prob = HalfLineProblem(2, 1.0, [[1, 0]])
    assert prob.datum_kernel == (0.0, 1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        prob.datum_kernel = (1.0, 0.0)
