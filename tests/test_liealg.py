"""Lie brackets of both families, the step derivation, and the law checkers."""

import pytest

from thinlie.dpalgebra import AlgebraElement, Heights, Monomial
from thinlie.ffield import FieldParams
from thinlie.liealg import (
    AlgebraDescriptor,
    Derivation,
    Family,
    anticommutativity_violations,
    closure_violations,
    derivation_power_violations,
    jacobi_violations,
    leibniz_violations,
    poisson_coeff,
    realization_violations,
)

F3 = FieldParams.prime(3)
GH11 = AlgebraDescriptor(Family.GRADED_HAMILTONIAN, F3, Heights(3, 1, 1))
AZ11 = AlgebraDescriptor(Family.ALBERT_ZASSENHAUS, F3, Heights(3, 1, 1))
GH21 = AlgebraDescriptor(Family.GRADED_HAMILTONIAN, F3, Heights(3, 2, 1))
AZ21 = AlgebraDescriptor(Family.ALBERT_ZASSENHAUS, F3, Heights(3, 2, 1))


def test_dimensions():
    assert GH11.dim == 7
    assert AZ11.dim == 9
    assert GH21.dim == 25
    assert AZ21.dim == 27


def test_basis_exclusions():
    h = GH11.heights
    assert h.unit not in GH11.basis
    assert h.top not in GH11.basis
    assert AZ11.heights.unit in AZ11.basis
    assert AZ11.heights.top in AZ11.basis


def test_poisson_coeff_frozen():
    # {x, y} = -1
    assert poisson_coeff(3, 1, 0, 0, 1) == 2
    assert poisson_coeff(3, 0, 1, 1, 0) == 1
    assert poisson_coeff(5, 1, 0, 0, 1) == 4


def test_bracket_mono_frozen():
    x, y = Monomial(1, 0), Monomial(0, 1)
    # constants act as zero in the graded family
    assert GH11.bracket_mono(x, y) is None
    assert AZ11.bracket_mono(x, y) == (2, Monomial(0, 0))
    # {x^(2)y, y} = -xy
    assert GH11.bracket_mono(Monomial(2, 1), y) == (2, Monomial(1, 1))
    # pure-y rule wraps onto xbar: {1, y} = -xbar
    assert AZ21.bracket_mono(Monomial(0, 0), y) == (2, Monomial(8, 0))
    assert AZ11.bracket_mono(y, Monomial(0, 2)) == (2, Monomial(2, 2))


def test_bracket_bilinearity():
    u = GH21.basis_element(Monomial(2, 1)) + GH21.basis_element(Monomial(1, 0), 2)
    v = GH21.basis_element(Monomial(0, 1))
    w = GH21.basis_element(Monomial(3, 2))
    assert GH21.bracket(u, v + w) == GH21.bracket(u, v) + GH21.bracket(u, w)
    assert GH21.bracket(u.scale(2), v) == GH21.bracket(u, v).scale(2)


def test_bracket_rejects_foreign_support():
    stray = AlgebraElement.from_monomial(F3, GH11.heights, Monomial(0, 0))
    with pytest.raises(ValueError):
        GH11.bracket(stray, GH11.basis_element(Monomial(1, 0)))
    with pytest.raises(ValueError):
        GH11.basis_element(Monomial(2, 2))


def test_project():
    ambient = AlgebraElement(
        F3, GH11.heights, [(Monomial(0, 0), 1), (Monomial(1, 0), 2)]
    )
    assert GH11.project(ambient) == GH11.basis_element(Monomial(1, 0), 2)
    top = AlgebraElement.from_monomial(F3, GH11.heights, GH11.heights.top)
    with pytest.raises(ValueError):
        GH11.project(top)
    assert AZ11.project(top) == top


def test_law_suites_empty():
    for desc in (GH11, AZ11, GH21, AZ21):
        assert anticommutativity_violations(desc) == []
        assert jacobi_violations(desc) == []
        assert closure_violations(desc) == []


def test_law_suites_catch_corruption():
    desc = AlgebraDescriptor(Family.GRADED_HAMILTONIAN, F3, Heights(3, 1, 1))
    a, b = Monomial(1, 0), Monomial(0, 1)
    desc.bracket_mono(a, b)
    desc._table[(a, b)] = (1, Monomial(1, 1))  # plant a bad structure constant
    assert anticommutativity_violations(desc) == [(b, a)]


def test_derivation_closed_form_frozen():
    d = Derivation(AZ21, 1)
    assert d.has_closed_form
    assert d.apply(AZ21.basis_element(Monomial(3, 0))) == AZ21.basis_element(
        Monomial(0, 0)
    )
    # wrap-around with coefficient -(j-1) on x^(0)y^(j)
    assert d.apply(AZ21.basis_element(Monomial(0, 2))) == AZ21.basis_element(
        Monomial(6, 2), 2
    )
    dg = Derivation(GH21, 1)
    assert dg.apply(GH21.basis_element(Monomial(0, 2))).is_zero()


def test_derivation_without_closed_form():
    d = Derivation(GH21, 2)
    assert not d.has_closed_form
    # (ad y)^9 kills everything when xbound = 9
    for m in GH21.basis:
        assert d.apply(GH21.basis_element(m)).is_zero()
    assert derivation_power_violations(d) == []
    assert realization_violations(d) == []


def test_realization_and_leibniz():
    for desc in (AZ21, GH21):
        d = Derivation(desc, 1)
        assert realization_violations(d) == []
        assert leibniz_violations(d) == []


def test_derivation_power_laws():
    assert derivation_power_violations(Derivation(GH21, 1)) == []
    assert derivation_power_violations(Derivation(AZ21, 1)) == []


def test_az_power_law_is_eigenvalue():
    d = Derivation(AZ21, 1)
    p = 3
    for m in AZ21.basis:
        v = AZ21.basis_element(m)
        assert d.apply_power(v, p) == v.scale(-(m.j - 1))


def test_iterated_matches_bracket_composition():
    d = Derivation(AZ11, 1)
    y = AZ11.basis_element(Monomial(0, 1))
    v = AZ11.basis_element(Monomial(2, 1))
    manual = v
    for _ in range(3):
        manual = AZ11.bracket(y, manual)
    assert d.apply_iterated(v) == manual
