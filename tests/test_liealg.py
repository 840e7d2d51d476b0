"""Lie brackets of both families, the step derivation, and the law checkers."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import (
    apply_power,
    dense_additive_violations,
    dense_anticommutativity_violations,
    dense_antisymmetry_violations,
    dense_jacobi_violations,
    dense_monomial_grading_violations,
    element_derivation_power_violations,
    element_leibniz_violations,
    element_realization_violations,
    items,
)
from thinlie.dpalgebra import AlgebraElement, Heights, Monomial, SparseEchelon
from thinlie.ffield import FieldParams, is_irreducible
from thinlie import liealg
from thinlie.grading import GradingCase, GradingSpec, monomial_grading_violations
from thinlie.liealg import (
    AlgebraDescriptor,
    Derivation,
    Family,
    additive_violations,
    ads_are_derivations,
    anticommutativity_violations,
    antisymmetry_violations,
    closure_violations,
    derivation_defects,
    derivation_power_violations,
    iterated_table,
    jacobi_violations,
    leibniz_violations,
    monomial_generators,
    poisson_coeff,
    realization_violations,
    table_power,
)

F3 = FieldParams.prime(3)
F5 = FieldParams.prime(5)
F27 = FieldParams(3, 3, (2, 2, 0, 1))
F3125 = FieldParams(5, 5, (4, 4, 0, 0, 0, 1))
F7_7 = FieldParams(7, 7, (6, 6, 0, 0, 0, 0, 0, 1))
# t^2 = 2t + 1: the fold of t^2 by the modulus has two terms
F9 = FieldParams.parse_spec("3^2:2,1,1")
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
    with pytest.raises(ValueError):
        GH11.bracket_mono(Monomial(0, 0), Monomial(1, 0))


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


def test_table_matches_bracket_mono_raw():
    """The table built from per-axis binomials is the raw rule entry for
    entry, rows in basis order."""
    for family in Family:
        for p, n1, n2 in [(3, 1, 1), (3, 2, 1), (3, 3, 2), (3, 2, 3), (5, 2, 1), (5, 1, 2)]:
            desc = AlgebraDescriptor(family, FieldParams.prime(p), Heights(p, n1, n2))
            for i, a in enumerate(desc.basis):
                expected = {}
                for j, b in enumerate(desc.basis):
                    raw = desc._bracket_mono_raw(a, b)
                    if raw is not None:
                        expected[j] = (raw[0], desc._index[raw[1]])
                assert list(desc.table[i].items()) == list(expected.items()), (desc, a)


@pytest.mark.parametrize("family", list(Family))
def test_table_refuses_nonzero_overflow(family, monkeypatch):
    """With C(n, k) faked to k + 1, the Poisson constant of x^(i)y^(j),
    x^(k)y^(l) is j - i, nonzero on some pair whose exponents overflow."""
    monkeypatch.setattr("thinlie.liealg.lucas_binomial", lambda n, k, p: (k + 1) % p)
    desc = AlgebraDescriptor(family, F3, Heights(3, 1, 1))
    with pytest.raises(ArithmeticError, match="overflowing bracket"):
        desc.table


def test_law_suites_catch_corruption():
    desc = AlgebraDescriptor(Family.GRADED_HAMILTONIAN, F3, Heights(3, 1, 1))
    a, b = Monomial(1, 0), Monomial(0, 1)
    # plant a bad structure constant where the true bracket [x, y] is zero
    index = desc.basis.index
    desc.table[index(a)][index(b)] = (1, index(Monomial(1, 1)))
    assert anticommutativity_violations(desc) == [(b, a)]
    desc.table[index(a)][index(b)] = (1, desc.dim)  # a target past the basis
    assert closure_violations(desc) == [(a, b)]


def test_closure_finds_every_top_pair(monkeypatch):
    """With every Poisson coefficient forced nonzero, closure reports each
    pair whose unprojected bracket lands on the top monomial, in order."""
    for desc in (GH11, GH21):
        desc.table
        h = desc.heights
        top_pairs = [(a, b) for a in desc.basis for b in desc.basis
                     if (a.i + b.i - 1, a.j + b.j - 1) == h.top]
        assert top_pairs
        monkeypatch.setattr("thinlie.liealg.poisson_coeff", lambda *args: 1)
        assert closure_violations(desc) == top_pairs
        monkeypatch.undo()


def planted_descriptor(family, heights, data):
    """A fresh descriptor with one to three structure constants overwritten,
    each at a pair whose true bracket is zero or at one where it is not."""
    desc = AlgebraDescriptor(family, F3, heights)
    n = desc.dim
    pairs = [(i, j) for i in range(n) for j in range(n)]
    zero = [ij for ij in pairs if ij[1] not in desc.table[ij[0]]]
    nonzero = [ij for ij in pairs if ij[1] in desc.table[ij[0]]]
    for _ in range(data.draw(st.integers(1, 3))):
        i, j = data.draw(st.sampled_from(zero if data.draw(st.booleans()) else nonzero))
        desc.table[i][j] = (data.draw(st.integers(1, 2)), data.draw(st.integers(0, n - 1)))
    return desc


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(Family.GRADED_HAMILTONIAN, Heights(3, 1, 1)),
                        (Family.ALBERT_ZASSENHAUS, Heights(3, 1, 1)),
                        (Family.GRADED_HAMILTONIAN, Heights(3, 2, 1)),
                        (Family.ALBERT_ZASSENHAUS, Heights(3, 2, 1))]),
       st.data())
def test_sparse_sweeps_match_oracles_on_planted_constants(config, data):
    family, heights = config
    desc = planted_descriptor(family, heights, data)
    assert anticommutativity_violations(desc) == dense_anticommutativity_violations(desc)
    assert jacobi_violations(desc) == dense_jacobi_violations(desc)
    case = (GradingCase.PRESWITCH_AZ if family is Family.ALBERT_ZASSENHAUS
            else GradingCase.PRESWITCH_GH)
    spec = GradingSpec(case, heights, heights.n1 - 1, 1)
    assert (monomial_grading_violations(desc, spec)
            == dense_monomial_grading_violations(desc, spec))
    for s in (0, 1):
        deriv = Derivation(desc, s)
        assert leibniz_violations(deriv) == element_leibniz_violations(deriv)
        assert realization_violations(deriv) == element_realization_violations(deriv)
        assert derivation_power_violations(deriv) == element_derivation_power_violations(deriv)


def layered_table(data) -> tuple:
    """(rows, p, weight, modulus): a random table in 1 to 3 coordinate
    layers over 2 to 8 basis indexes, antisymmetric and additive in the
    drawn weights: each pair a < b gets a coefficient with random nonzero
    coordinates onto a target of weight weight[a] + weight[b], or none."""
    p, m = data.draw(st.sampled_from([3, 5, 7])), data.draw(st.integers(1, 3))
    n, modulus = data.draw(st.integers(2, 8)), data.draw(st.integers(2, 6))
    weight = data.draw(st.lists(st.integers(0, modulus - 1), min_size=n, max_size=n))
    rows = [[{} for _ in range(n)] for _ in range(m)]
    for a in range(n):
        for b in range(a + 1, n):
            graded = [t for t in range(n) if weight[t] == (weight[a] + weight[b]) % modulus]
            if graded and data.draw(st.booleans()):
                t = data.draw(st.sampled_from(graded))
                c = data.draw(st.lists(st.integers(0, p - 1), min_size=m, max_size=m).filter(any))
                for layer, x in zip(rows, c):
                    if x:
                        layer[a][b], layer[b][a] = (x, t), (-x % p, t)
    return rows, p, weight, modulus


def plant(rows, p, weight, modulus, kind, data):
    """Break one law of a layered table: a diagonal entry, a missing mirror,
    a different target, a coordinate that no longer sums to 0 with its
    mirror's (in a layer r >= 1 when there is one), or a target of the wrong
    weight on both orders of a pair, in every layer."""
    n, m = len(rows[0]), len(rows)
    r = data.draw(st.integers(1 if m > 1 and kind == "sum" else 0, m - 1))
    entries = [(a, b) for a, row in enumerate(rows[r]) for b in row if a != b]
    if kind == "diagonal":
        a = data.draw(st.integers(0, n - 1))
        rows[r][a][a] = (data.draw(st.integers(1, p - 1)), data.draw(st.integers(0, n - 1)))
    elif entries:
        a, b = data.draw(st.sampled_from(entries))
        x, t = rows[r][a][b]
        if kind == "mirror":
            rows[r][b].pop(a, None)
        elif kind == "target":
            rows[r][a][b] = (x, (t + data.draw(st.integers(1, n - 1))) % n)
        elif kind == "sum":
            rows[r][a][b] = (x % (p - 1) + 1, t)  # nonzero, and not x
        else:
            off = [u for u in range(n) if weight[u] != (weight[a] + weight[b]) % modulus]
            if off:
                u = data.draw(st.sampled_from(off))
                for layer in rows:
                    for i, j in ((a, b), (b, a)):
                        if j in layer[i]:
                            layer[i][j] = (layer[i][j][0], u)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_table_kernels_match_dense_oracles_on_layered_plantings(data):
    """antisymmetry_violations and additive_violations list what the dense
    sweeps over every pair of every layer list, on random tables of 1 to 3
    layers with up to three plantings, and nothing on the unplanted ones."""
    rows, p, weight, modulus = layered_table(data)
    assert antisymmetry_violations(rows, p) == [] == dense_antisymmetry_violations(rows, p)
    assert additive_violations(rows, weight, modulus) == []
    assert dense_additive_violations(rows, weight, modulus) == []
    kinds = ["diagonal", "mirror", "target", "sum", "weight"]
    for kind in data.draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=3)):
        plant(rows, p, weight, modulus, kind, data)
    assert antisymmetry_violations(rows, p) == dense_antisymmetry_violations(rows, p)
    assert (additive_violations(rows, weight, modulus)
            == dense_additive_violations(rows, weight, modulus))


def layered_field(p: int, m: int) -> FieldParams:
    """F_{p^m} by the first irreducible monic modulus in lexicographic order."""
    for low in itertools.product(range(p), repeat=m):
        if is_irreducible(p, low + (1,)):
            return FieldParams(p, m, low + (1,))


def negated(derivation: list, p: int) -> list:
    """-D of a derivation, a monomial map in coordinate layers."""
    return [{i: (-y % p, k) for i, (y, k) in layer.items()} for layer in derivation]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_batched_derivation_defects_match_single_runs_on_layered_plantings(data):
    """One run of `derivation_defects` over several derivations lists, per
    row, the union of what a run per derivation lists, and
    `ads_are_derivations` on a generator list is the conjunction of its
    single-generator calls, on random layered tables with up to three
    plantings.  The defects of ad_g and -ad_g are equal up to sign, so a
    kernel that summed them under one key would report nothing."""
    rows, p, weight, modulus = layered_table(data)
    field, n = layered_field(p, len(rows)), len(rows[0])
    kinds = ["diagonal", "mirror", "target", "sum", "weight"]
    for kind in data.draw(st.lists(st.sampled_from(kinds), max_size=3)):
        plant(rows, p, weight, modulus, kind, data)
    gens = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
    ads = [[layer[g] for layer in rows] for g in gens]
    half = data.draw(st.booleans())
    union = {}
    for d in ads:
        for a, bs in derivation_defects(rows, [d], field, half):
            union[a] = sorted(set(union.get(a, [])) | set(bs))
    assert list(derivation_defects(rows, ads, field, half)) == sorted(union.items())
    assert (ads_are_derivations(rows, gens, field)
            == all(ads_are_derivations(rows, [g], field) for g in gens))
    alone = list(derivation_defects(rows, ads[:1], field))
    assert list(derivation_defects(rows, [ads[0], negated(ads[0], p)], field)) == alone


def test_defects_of_opposite_derivations_do_not_cancel():
    """D with one planted entry, D xy = y where D xy = 0, is no derivation;
    D and -D together fail on exactly the rows and partners of D alone."""
    desc = AlgebraDescriptor(Family.ALBERT_ZASSENHAUS, F3, Heights(3, 2, 1))
    deriv = Derivation(desc, 1)
    assert desc._index[Monomial(1, 1)] not in deriv.table
    deriv.table[desc._index[Monomial(1, 1)]] = (1, desc._index[Monomial(0, 1)])
    rows, d = [desc.table], [deriv.table]
    alone = list(derivation_defects(rows, [d], F3))
    assert alone != []
    assert [(desc.basis[a], desc.basis[b]) for a, bs in alone for b in bs] == (
        element_leibniz_violations(deriv))
    assert list(derivation_defects(rows, [d, negated(d, 3)], F3)) == alone


def admissible_descriptor(data):
    """A fresh descriptor for random (family, p, n1, n2) over F_p, at most 125
    monomials, with one random constant planted in the row of y half the
    time."""
    p = data.draw(st.sampled_from([3, 5]))
    n1, n2 = data.draw(st.sampled_from(
        [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3)] if p == 3 else [(1, 1), (2, 1), (1, 2)]))
    family = data.draw(st.sampled_from(list(Family)))
    desc = AlgebraDescriptor(family, FieldParams.prime(p), Heights(p, n1, n2))
    if data.draw(st.booleans()):
        n = desc.dim
        iy = desc.basis.index(Monomial(0, 1))
        desc.table[iy][data.draw(st.integers(0, n - 1))] = (
            data.draw(st.integers(1, p - 1)), data.draw(st.integers(0, n - 1)))
    return desc


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_derivation_sweeps_match_element_oracles(data):
    """The integer D-power and realization sweeps against the element
    references, with and without the closed form (s = n1 - 1 or not), on
    true tables and with an entry planted in the closed-form map."""
    desc = admissible_descriptor(data)
    deriv = Derivation(desc, data.draw(st.integers(0, desc.heights.n1)))
    if deriv.has_closed_form and data.draw(st.booleans()):
        n, p = desc.dim, desc.heights.p
        deriv.table[data.draw(st.integers(0, n - 1))] = (
            data.draw(st.integers(1, p - 1)), data.draw(st.integers(0, n - 1)))
    assert realization_violations(deriv) == element_realization_violations(deriv)
    assert derivation_power_violations(deriv) == element_derivation_power_violations(deriv)
    if not deriv.has_closed_form:
        y = desc.basis_element(Monomial(0, 1))
        for i, m in enumerate(desc.basis):
            w = desc.basis_element(m)
            for _ in range(desc.heights.p ** deriv.s):
                w = desc.bracket(y, w)
            assert deriv.apply(desc.basis_element(m)) == w


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_leibniz_matches_element_oracle_on_planted_derivation_entries(data):
    """On random admissible (family, p, n1, n2, s) with at most 81 monomials,
    one to three entries of the derivation's map overwritten or deleted, so
    the images are neither the closed form nor a power of ad y: the
    row-wise defect sums list the pairs the element sweep finds, in order."""
    p = data.draw(st.sampled_from([3, 5]))
    n1, n2 = data.draw(st.sampled_from(
        [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3)] if p == 3 else [(1, 1)]))
    desc = AlgebraDescriptor(data.draw(st.sampled_from(list(Family))),
                             FieldParams.prime(p), Heights(p, n1, n2))
    deriv = Derivation(desc, data.draw(st.integers(0, n1)))
    n = desc.dim
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, n - 1))
        if i in deriv.table and data.draw(st.booleans()):
            del deriv.table[i]
        else:
            deriv.table[i] = (data.draw(st.integers(1, p - 1)), data.draw(st.integers(0, n - 1)))
    assert leibniz_violations(deriv) == element_leibniz_violations(deriv)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_leibniz_on_generator_rows_and_realization_match_element_sweeps(data):
    """On the shapes above, D replaced by c ad_z, a derivation that is not
    (ad y)^(p^s) in most draws, or with one entry changed on a row off the
    generators: Leibniz, decided on the generator rows with the full
    kernel as fallback, lists the pairs the element sweep finds, and the
    realization check lists the rows that differ from `iterated_table`, as
    the element sweep does."""
    p = data.draw(st.sampled_from([3, 5]))
    n1, n2 = data.draw(st.sampled_from(
        [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3)] if p == 3 else [(1, 1)]))
    desc = AlgebraDescriptor(data.draw(st.sampled_from(list(Family))),
                             FieldParams.prime(p), Heights(p, n1, n2))
    deriv = Derivation(desc, data.draw(st.integers(0, n1)))
    n, gens = desc.dim, desc.generators
    plant_ad = data.draw(st.booleans())
    if plant_ad:
        z, c = data.draw(st.integers(0, n - 1)), data.draw(st.integers(1, p - 1))
        deriv.table = scaled_ad(desc, z, c)
    else:
        i = data.draw(st.sampled_from(sorted(set(range(n)) - set(gens))))
        k, old = data.draw(st.integers(0, n - 1)), deriv.table.get(i)
        if old is not None and data.draw(st.booleans()):
            del deriv.table[i]
        else:
            deriv.table[i] = (data.draw(st.sampled_from(
                [c for c in range(1, p) if (c, k) != old])), k)
    leibniz = deriv.leibniz
    assert leibniz == element_leibniz_violations(deriv)
    assert not (plant_ad and leibniz)
    iterated = iterated_table(desc, deriv.s)
    differ = [m for i, m in enumerate(desc.basis) if deriv.table.get(i) != iterated.get(i)]
    assert (realization_violations(deriv) == (differ if deriv.has_closed_form else [])
            == element_realization_violations(deriv))


def scaled_ad(desc, z: int, c: int) -> dict:
    """c ad_z, the row z of the table scaled by c, a derivation of a Lie
    algebra in the monomial-map format of D."""
    p = desc.heights.p
    return {i: (c * x % p, k) for i, (x, k) in desc.table[z].items()}


def powering_rows(record: list, power=liealg.table_power):
    """`liealg.table_power`, appending None to record for each call: each
    call follows every source of its table."""
    def counted(table, k, p):
        record.append(None)
        return power(table, k, p)
    return counted


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_power_laws_walk_every_source(data):
    """On closed-form shapes with at most 81 monomials, D kept, replaced by
    c ad_z (a derivation whose p-th power c ad_z^p is neither 0 nor E in
    some draws), or with one entry changed: the power laws list the
    monomials the element sweep finds, powering D from every source, and
    on AlbertZassenhaus D^p from every source too."""
    p = data.draw(st.sampled_from([3, 5]))
    n1, n2 = data.draw(st.sampled_from(
        [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3)] if p == 3 else [(1, 1)]))
    desc = AlgebraDescriptor(data.draw(st.sampled_from(list(Family))),
                             FieldParams.prime(p), Heights(p, n1, n2))
    deriv = Derivation(desc, n1 - 1)
    n = desc.dim
    planting = data.draw(st.sampled_from(["none", "ad", "entry"]))
    if planting == "ad":
        z, c = data.draw(st.integers(0, n - 1)), data.draw(st.integers(1, p - 1))
        deriv.table = scaled_ad(desc, z, c)
    elif planting == "entry":
        i = data.draw(st.integers(0, n - 1))
        deriv.table[i] = (data.draw(st.integers(1, p - 1)), data.draw(st.integers(0, n - 1)))
    powered, power = [], liealg.table_power
    liealg.table_power = powering_rows(powered)
    try:
        got = derivation_power_violations(deriv)
    finally:
        liealg.table_power = power
    assert got == element_derivation_power_violations(deriv)
    assert powered == ([None] if desc.family is Family.GRADED_HAMILTONIAN else [None, None])


def test_power_laws_walk_every_row_when_the_diagonal_is_no_derivation(monkeypatch):
    """With [x, xy] planted onto y^(2), off the sum of the y-degrees, the
    table is no Lie algebra, and E, the diagonal map -(j - 1), is no
    derivation of it: every row is powered, and the list is the element
    sweep's."""
    desc = AlgebraDescriptor(Family.ALBERT_ZASSENHAUS, F3, Heights(3, 2, 1))
    a, b, k = (desc._index[Monomial(*m)] for m in ((1, 0), (1, 1), (0, 2)))
    desc.table[a][b], desc.table[b][a] = (1, k), (2, k)
    deriv = Derivation(desc, 1)
    powered = []
    monkeypatch.setattr(liealg, "table_power", powering_rows(powered))
    assert derivation_power_violations(deriv) == element_derivation_power_violations(deriv)
    assert powered == [None, None]


def relabelled(row: dict, swap: dict) -> dict:
    """A monomial map with the basis indexes in swap exchanged, in its
    sources and in its targets."""
    return {swap.get(j, j): (c, swap.get(k, k)) for j, (c, k) in row.items()}


def test_power_laws_walk_lie_algebras_where_they_fail(monkeypatch):
    """On a Lie algebra with D a derivation the AlbertZassenhaus law can
    still fail, and the walk from every source lists what the element
    sweep lists.  The table and D relabelled by exchanging x^(2) and
    x^(2)y^(1), which differ in y-degree, are still a Lie algebra and a
    derivation, but E, the diagonal map -(j - 1), is none: D^p misses E on
    both, and neither is a candidate generator, so only a walk over every
    source sees them.  D replaced by
    ad y, a derivation whose p-th power is the closed D, misses E and has
    D^(p^2) = D^3 != D^p on every monomial D^p moves."""
    desc = AlgebraDescriptor(Family.ALBERT_ZASSENHAUS, F3, Heights(3, 2, 1))
    deriv = Derivation(desc, 1)
    a, b = desc._index[Monomial(2, 0)], desc._index[Monomial(2, 1)]
    swap = {a: b, b: a}
    desc.table[:] = [relabelled(desc.table[swap.get(i, i)], swap) for i in range(desc.dim)]
    deriv.table = relabelled(deriv.table, swap)
    assert not {a, b} & set(desc.generators)
    assert desc.anticommutativity == desc.jacobi == deriv.leibniz == []
    powered = []
    monkeypatch.setattr(liealg, "table_power", powering_rows(powered))
    got = derivation_power_violations(deriv)
    assert got == element_derivation_power_violations(deriv) == [
        (Monomial(2, 0), "D^p eigenvalue"), (Monomial(2, 1), "D^p eigenvalue")]
    assert powered == [None, None]
    desc = AlgebraDescriptor(Family.ALBERT_ZASSENHAUS, F3, Heights(3, 2, 1))
    deriv, powered[:] = Derivation(desc, 1), []
    deriv.table = dict(desc.table[desc._index[Monomial(0, 1)]])
    assert deriv.leibniz == []
    got = derivation_power_violations(deriv)
    assert got == element_derivation_power_violations(deriv)
    moved = [desc.basis[i] for i in sorted(table_power(deriv.table, 3, 3))]
    assert [m for m, law in got if law == "D^(p^2) != D^p"] == moved != []
    assert powered == [None, None]


def test_laws_of_d_read_no_other_verdict(monkeypatch):
    """The power laws and the realization walk D's map and read nothing
    else: on fresh (3; 2, 1) descriptors of both families they leave
    anticommutativity, Jacobi, the generators and Leibniz uncomputed and
    never call the additive kernel."""
    additive = []

    def counted_additive(*args):
        additive.append(1)
        return []
    monkeypatch.setattr(liealg, "additive_violations", counted_additive)
    for family in Family:
        desc = AlgebraDescriptor(family, F3, Heights(3, 2, 1))
        deriv = Derivation(desc, 1)
        assert derivation_power_violations(deriv) == realization_violations(deriv) == []
        assert not {"anticommutativity", "jacobi", "generators"} & vars(desc).keys(), family
        assert "leibniz" not in vars(deriv), family
    assert additive == []


def test_laws_of_d_take_no_generator_rows_from_a_failing_derivation():
    """With D x^(8)y^(1) planted as 1, off the generators, D is no
    derivation, so realization and the power laws compare every row and
    name that monomial, as the element sweeps do."""
    desc = AlgebraDescriptor(Family.ALBERT_ZASSENHAUS, F3, Heights(3, 2, 1))
    deriv = Derivation(desc, 1)
    m = Monomial(8, 1)
    assert desc._index[m] not in desc.generators
    deriv.table[desc._index[m]] = (1, desc._index[Monomial(0, 0)])
    assert deriv.leibniz != []
    assert realization_violations(deriv) == [m] == element_realization_violations(deriv)
    assert (derivation_power_violations(deriv) == [(m, "D^p eigenvalue")]
            == element_derivation_power_violations(deriv))


def test_realization_compares_every_generator():
    """On GradedHamiltonian (3; 2, 1) the generators are y, x and two
    maximal monomials, and (ad y)^3 vanishes on y and x.  The zero map is a
    derivation that agrees with it there and not on the maximal ones, so
    realization lists every monomial (ad y)^3 does not kill, as the element
    sweep does."""
    desc = AlgebraDescriptor(Family.GRADED_HAMILTONIAN, F3, Heights(3, 2, 1))
    deriv = Derivation(desc, 1)
    assert [g in deriv.table for g in desc.generators] == [False, False, True, True]
    moved = [desc.basis[i] for i in sorted(deriv.table)]
    deriv.table = {}
    assert deriv.leibniz == []
    assert realization_violations(deriv) == moved == element_realization_violations(deriv)


def drop_brackets_onto(desc, m):
    """Delete every table entry with target index m."""
    for row in desc.table:
        for j in [j for j, (_c, k) in row.items() if k == m]:
            del row[j]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_jacobi_certificate_matches_oracle_on_anticommutative_plantings(data):
    """On random (family, p, n1, n2) with at most 81 monomials, plantings
    that keep the table anticommutative reach the generator certificate:
    constants planted as [a, b] = c e_k with [b, a] = -c e_k, and every
    bracket onto one monomial set to zero, which can leave the candidate
    generators generating only part of the algebra."""
    p = data.draw(st.sampled_from([3, 5, 7]))
    n1, n2 = data.draw(st.sampled_from(
        [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3)] if p == 3 else [(1, 1)]))
    family = data.draw(st.sampled_from(list(Family)))
    desc = AlgebraDescriptor(family, FieldParams.prime(p), Heights(p, n1, n2))
    n, rows = desc.dim, desc.table
    for _ in range(data.draw(st.integers(0, 2))):
        i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        c, k = data.draw(st.integers(1, p - 1)), data.draw(st.integers(0, n - 1))
        rows[i][j], rows[j][i] = (c, k), (-c % p, k)
    if data.draw(st.booleans()):
        drop_brackets_onto(desc, data.draw(st.integers(0, n - 1)))
    assert anticommutativity_violations(desc) == []
    assert jacobi_violations(desc) == dense_jacobi_violations(desc)
    gens = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))
    assert (ads_are_derivations([rows], gens, desc.field)
            == all(ads_are_derivations([rows], [g], desc.field) for g in gens))


def test_generation_fails_without_brackets_onto_a_monomial():
    """With no bracket landing on x^(1)y^(1), no candidate generates it."""
    for desc in (AlgebraDescriptor(Family.GRADED_HAMILTONIAN, F3, Heights(3, 2, 1)),
                 AlgebraDescriptor(Family.ALBERT_ZASSENHAUS, F3, Heights(3, 2, 1))):
        assert monomial_generators(desc) is not None
        drop_brackets_onto(desc, desc._index[Monomial(1, 1)])
        assert monomial_generators(desc) is None
        assert jacobi_violations(desc) == dense_jacobi_violations(desc) != []


def test_planted_row_out_of_key_order():
    """Entries planted into a row in descending order are still reported in
    basis order."""
    desc = AlgebraDescriptor(Family.ALBERT_ZASSENHAUS, F3, Heights(3, 2, 1))
    spec = GradingSpec(GradingCase.PRESWITCH_AZ, desc.heights, 1, 1)
    deg = [spec.degree_of_monomial(m) for m in desc.basis]
    row = desc.table[0]
    free = [j for j in range(desc.dim) if j not in row]
    for j in sorted(free[:2], reverse=True):
        k = next(k for k in range(desc.dim) if deg[k] != (deg[0] + deg[j]) % spec.N)
        row[j] = (1, k)
    found = monomial_grading_violations(desc, spec)
    assert len(found) == 2
    assert found == dense_monomial_grading_violations(desc, spec)
    assert anticommutativity_violations(desc) == dense_anticommutativity_violations(desc)


def random_element(desc, data):
    field = desc.field
    coeff = st.lists(st.integers(0, field.p - 1), min_size=field.m,
                     max_size=field.m).filter(any)
    terms = data.draw(st.lists(st.tuples(st.sampled_from(desc.basis), coeff),
                               min_size=2, max_size=6, unique_by=lambda t: t[0]))
    return AlgebraElement(field, desc.heights, terms)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([
    AlgebraDescriptor(Family.ALBERT_ZASSENHAUS, F5, Heights(5, 1, 1)),
    AlgebraDescriptor(Family.GRADED_HAMILTONIAN, F5, Heights(5, 1, 1)),
    AlgebraDescriptor(Family.ALBERT_ZASSENHAUS, F27, Heights(3, 2, 1)),
    AlgebraDescriptor(Family.GRADED_HAMILTONIAN, F27, Heights(3, 1, 2)),
]), st.data())
def test_laws_on_random_elements(desc, data):
    u, v, w = (random_element(desc, data) for _ in range(3))
    br = desc.bracket
    assert br(u, u).is_zero()
    assert br(u, v) == -br(v, u)
    assert (br(br(u, v), w) + br(br(v, w), u) + br(br(w, u), v)).is_zero()


def test_derivation_closed_form_frozen():
    d = Derivation(AZ21, 1)
    assert d.has_closed_form
    index = AZ21.basis.index
    assert d.table[index(Monomial(3, 0))] == (1, index(Monomial(0, 0)))
    assert d.apply(AZ21.basis_element(Monomial(3, 0))) == AZ21.basis_element(
        Monomial(0, 0)
    )
    # wrap-around with coefficient -(j-1) on x^(0)y^(j)
    assert d.table[index(Monomial(0, 2))] == (2, index(Monomial(6, 2)))
    assert d.apply(AZ21.basis_element(Monomial(0, 2))) == AZ21.basis_element(
        Monomial(6, 2), 2
    )
    # ... which vanishes on y^(1) and on y^(4) alike, as -(j-1) = 0 mod p
    az12 = AlgebraDescriptor(Family.ALBERT_ZASSENHAUS, F3, Heights(3, 1, 2))
    dz = Derivation(az12, 0)
    assert az12.basis.index(Monomial(0, 1)) not in dz.table
    assert az12.basis.index(Monomial(0, 4)) not in dz.table
    dg = Derivation(GH21, 1)
    assert GH21.basis.index(Monomial(0, 2)) not in dg.table
    assert dg.apply(GH21.basis_element(Monomial(0, 2))).is_zero()
    # the image x^(0)y^(0) of x^(3)y^(0) is excluded from GH and dropped
    assert GH21.basis.index(Monomial(3, 0)) not in dg.table


def test_derivation_rejects_foreign_support():
    stray = AlgebraElement.from_monomial(F3, GH21.heights, Monomial(0, 0))
    with pytest.raises(ValueError):
        Derivation(GH21, 1).apply(stray)
    with pytest.raises(ValueError):
        Derivation(GH21, 0).apply(stray)


def test_derivation_without_closed_form():
    d = Derivation(GH21, 2)
    assert not d.has_closed_form
    # (ad y)^9 kills everything when xbound = 9
    for m in GH21.basis:
        assert d.apply(GH21.basis_element(m)).is_zero()
    assert derivation_power_violations(d) == []
    assert realization_violations(d) == []


def test_planting_in_d_leaves_the_algebra_alone():
    """At s = 0 without the closed form D is ad y, a copy of the row of y:
    an entry planted in D's map is not planted in the structure constants."""
    desc = AlgebraDescriptor(Family.GRADED_HAMILTONIAN, F3, Heights(3, 2, 1))
    y = desc._index[Monomial(0, 1)]
    deriv = Derivation(desc, 0)
    assert not deriv.has_closed_form and deriv.table == desc.table[y]
    deriv.table[y] = (1, y)  # D y = y, where [y, y] = 0
    assert y not in desc.table[y]


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
        assert apply_power(d, v, p) == v.scale(-(m.j - 1))


def test_iterated_matches_bracket_composition():
    d = Derivation(AZ11, 1)
    assert not d.has_closed_form
    y = AZ11.basis_element(Monomial(0, 1))
    index = AZ11.basis.index
    iterated = iterated_table(AZ11, 1)
    for i, m in enumerate(AZ11.basis):
        manual = AZ11.basis_element(m)
        for _ in range(3):
            manual = AZ11.bracket(y, manual)
        image = [(c.as_int(), index(t)) for t, c in items(manual)]
        assert len(image) <= 1
        assert d.table.get(i) == iterated.get(i) == (image[0] if image else None)
    # with xbound = 3, (ad y)^3 is the diagonal D^p of the s = 0 closed form
    assert d.table[index(Monomial(2, 2))] == (2, index(Monomial(2, 2)))
    assert index(Monomial(2, 1)) not in d.table
    assert d.apply(AZ11.basis_element(Monomial(2, 2))) == AZ11.basis_element(
        Monomial(2, 2), 2)


def image(desc, hit) -> AlgebraElement:
    """The element c e_k of a monomial-map entry (c, k), zero for None."""
    return desc.zero() if hit is None else desc.basis_element(desc.basis[hit[1]], hit[0])


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_derivations_are_monomial_maps(data):
    """On random admissible (family, p, n1, n2) with at most 125 monomials
    and s up to n1, closed form or not: D's table, `iterated_table` and
    `table_power` of D's table map each source to one (c, target), c in
    [1, p).  Each agrees with elements: D's table with `Derivation.apply`
    and both tables with p^s brackets by y, and the power with D applied k
    times and with the vector sums of `oracles.dense_table_power`."""
    p = data.draw(st.sampled_from([3, 5]))
    n1, n2 = data.draw(st.sampled_from(
        [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3)] if p == 3 else [(1, 1), (2, 1), (1, 2)]))
    desc = AlgebraDescriptor(data.draw(st.sampled_from(list(Family))),
                             FieldParams.prime(p), Heights(p, n1, n2))
    deriv = Derivation(desc, data.draw(st.integers(0, n1)))
    k, n = data.draw(st.integers(1, 2 * p)), desc.dim
    iterated, power = iterated_table(desc, deriv.s), table_power(deriv.table, k, p)
    for table in (deriv.table, iterated, power):
        assert type(table) is dict
        assert all(0 <= i < n and 0 < c < p and 0 <= t < n for i, (c, t) in table.items())
    y = desc.basis_element(Monomial(0, 1))
    for i, m in enumerate(desc.basis):
        v = w = desc.basis_element(m)
        for _ in range(p ** deriv.s):
            w = desc.bracket(y, w)
        assert deriv.apply(v) == image(desc, deriv.table.get(i)) == w
        assert image(desc, iterated.get(i)) == w
        assert apply_power(deriv, v, k) == image(desc, power.get(i))
    assert oracles.dense_table_power(deriv.table, k, p, n) == [
        {power[i][1]: power[i][0]} if i in power else {} for i in range(n)]


def test_ads_hand_the_kernel_the_table_rows(monkeypatch):
    """ads_are_derivations passes each ad_g to `derivation_defects` as the
    table's own row objects, one per layer, not as copies."""
    desc = AlgebraDescriptor(Family.ALBERT_ZASSENHAUS, F3, Heights(3, 2, 1))
    rows, gens = [desc.table, [dict(row) for row in desc.table]], desc.generators
    seen, kernel = [], liealg.derivation_defects

    def spy(rows, derivations, field, half=False, visit=None):
        seen.append(derivations)
        return kernel(rows, derivations, field, half, visit)
    monkeypatch.setattr(liealg, "derivation_defects", spy)
    ads_are_derivations(rows, gens, desc.field)
    derivations, = seen
    assert len(derivations) == len(gens) > 1
    assert all(len(ad) == len(rows) and all(row is layer[g] for row, layer in zip(ad, rows))
               for g, ad in zip(gens, derivations))


def dense_sum(desc, pairs):
    """Coordinates over every monomial of the heights of a sum of
    (monomial, coefficient) pairs."""
    vec = {m: desc.field.zero() for m in desc.heights.monomials()}
    for m, c in pairs:
        vec[m] = vec[m] + c
    return vec


def leading(vec):
    return min((m for m, x in vec.items() if not x.is_zero()), default=None)


def dense_reduce(desc, rows, vec):
    """Clear the leading pivots of a coordinate vector, one at a time."""
    while (lead := leading(vec)) in rows:
        vec = dense_sum(desc, [*vec.items(), *((m, -vec[lead] * x) for m, x in rows[lead].items())])
    return vec


def assert_is_dense_sum(desc, w, pairs):
    assert all(0 < c < desc.field.p for c in w.terms.values())
    assert {m: w.coeff(m) for m in desc.heights.monomials()} == dense_sum(desc, pairs)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([
    AlgebraDescriptor(Family.ALBERT_ZASSENHAUS, F5, Heights(5, 1, 1)),
    AlgebraDescriptor(Family.GRADED_HAMILTONIAN, F5, Heights(5, 1, 1)),
    AlgebraDescriptor(Family.ALBERT_ZASSENHAUS, F27, Heights(3, 2, 1)),
    AlgebraDescriptor(Family.GRADED_HAMILTONIAN, F27, Heights(3, 1, 2)),
    AlgebraDescriptor(Family.ALBERT_ZASSENHAUS, F3125, Heights(5, 1, 1)),
    AlgebraDescriptor(Family.GRADED_HAMILTONIAN, F9, Heights(3, 2, 1)),
]), st.data())
def test_kernel_results_are_dense_sums(desc, data):
    """+, -, scale, bracket, Derivation.apply and SparseEchelon.insert and
    reduce store no zero coefficient and agree with coordinate-vector sums."""
    field = desc.field
    u, v = random_element(desc, data), random_element(desc, data)
    if data.draw(st.booleans()):  # make some sums cancel
        v = v + (-u).scale(data.draw(st.sampled_from(list(field.elements()))))
    c = data.draw(st.sampled_from(list(field.elements())))
    U, V = items(u), items(v)
    assert_is_dense_sum(desc, u + v, [*U, *V])
    assert_is_dense_sum(desc, u - v, [*U, *((m, -x) for m, x in V)])
    assert_is_dense_sum(desc, u.scale(c), [(m, x * c) for m, x in U])
    h = desc.heights
    assert_is_dense_sum(desc, desc.bracket(u, v), [
        (hit[1], x * y * hit[0]) for a, x in U for b, y in V
        if (hit := desc.bracket_mono(a, b)) is not None])
    deriv = Derivation(desc, desc.heights.n1 - 1)
    assert_is_dense_sum(desc, deriv.apply(u), [
        (desc.basis[hit[1]], x * hit[0]) for a, x in U
        if (hit := deriv.table.get(desc.basis.index(a))) is not None])
    ech = SparseEchelon(field, h)
    mirror = {}  # the same inserts on coordinate vectors, by pivot
    for w in [u, v] + [random_element(desc, data) for _ in range(data.draw(st.integers(0, 3)))]:
        vec = dense_reduce(desc, mirror, dense_sum(desc, items(w)))
        lead = leading(vec)
        assert ech.insert(w) == (lead is not None)
        if lead is not None:
            mirror[lead] = {m: x / vec[lead] for m, x in vec.items()}
        assert ech.rows.keys() == mirror.keys()
        for key, row in ech.rows.items():
            assert_is_dense_sum(desc, row, mirror[key].items())
    w = random_element(desc, data)
    assert_is_dense_sum(desc, ech.reduce(w),
                        dense_reduce(desc, mirror, dense_sum(desc, items(w))).items())


def field_element(field, data):
    return field.element(data.draw(st.lists(st.integers(0, field.p - 1),
                                            min_size=field.m, max_size=field.m)))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([
    AlgebraDescriptor(Family.GRADED_HAMILTONIAN, F5, Heights(5, 1, 1)),
    AlgebraDescriptor(Family.ALBERT_ZASSENHAUS, F27, Heights(3, 2, 1)),
    AlgebraDescriptor(Family.GRADED_HAMILTONIAN, F9, Heights(3, 1, 2)),
    AlgebraDescriptor(Family.ALBERT_ZASSENHAUS, F3125, Heights(5, 1, 1)),
    AlgebraDescriptor(Family.ALBERT_ZASSENHAUS, F7_7, Heights(7, 1, 1)),
]), st.data())
def test_kernels_match_field_element_oracle(desc, data):
    """bracket, Derivation.apply, scale, SparseEchelon.insert and reduce on
    integer coordinates equal the FieldElement references of `oracles`."""
    field = desc.field
    u, v = random_element(desc, data), random_element(desc, data)
    c = field_element(field, data)
    assert dict(items(desc.bracket(u, v))) == oracles.bracket(desc, u, v)
    deriv = Derivation(desc, desc.heights.n1 - 1)
    assert dict(items(deriv.apply(u))) == oracles.apply(deriv, u)
    assert dict(items(u.scale(c))) == oracles.scale(u, c)
    ech, mirror = SparseEchelon(field, desc.heights), oracles.Echelon()
    for w in [u, v, u + v.scale(c)] + [random_element(desc, data)
                                       for _ in range(data.draw(st.integers(0, 3)))]:
        assert ech.insert(w) == mirror.insert(w)
        assert {k: dict(items(row)) for k, row in ech.rows.items()} == mirror.rows
    w = random_element(desc, data)
    assert dict(items(ech.reduce(w))) == mirror.reduce(w)


def test_index_cache_is_per_algebra():
    """The basis indexing an element keeps for one algebra is not reused by
    another algebra on the same heights, whose basis indexes differ."""
    terms = [(Monomial(1, 0), 1), (Monomial(0, 2), 2), (Monomial(2, 1), 1)]
    u, v = AlgebraElement(F3, GH21.heights, terms), GH21.basis_element(Monomial(1, 1))
    fresh = GH21.bracket(AlgebraElement(F3, GH21.heights, terms), v)
    assert not fresh.is_zero()
    AZ21.bracket(u, AZ21.basis_element(Monomial(1, 1)))
    assert GH21.bracket(u, v) == fresh
