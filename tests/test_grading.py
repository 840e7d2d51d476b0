"""Cyclic gradings, grading switching, closed bases and product tables."""

import hashlib
import math
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from oracles import Echelon, falling_binomial, ordered_check_graded, product, product_rule
from thinlie import grading, liealg
from thinlie.cli import standard_modulus
from thinlie.dpalgebra import AlgebraElement, Heights, Monomial, SparseEchelon, generalized_power
from thinlie.ffield import FieldParams
from thinlie.grading import (
    GradedBasis,
    GradingCase,
    GradingSpec,
    Label,
    SwitchConfig,
    build_closed_basis,
    check_graded,
    laguerre_apply,
    monomial_grading_violations,
    switch_checks,
    switch_grading,
    verify_product_tables,
)
from thinlie.liealg import (AlgebraDescriptor, Derivation, Family, antisymmetry_violations,
                            anticommutativity_violations)

F3 = FieldParams.prime(3)
F27 = FieldParams(3, 3, (2, 2, 0, 1))
H21 = Heights(3, 2, 1)

AZ = AlgebraDescriptor(Family.ALBERT_ZASSENHAUS, F27, H21)
GH = AlgebraDescriptor(Family.GRADED_HAMILTONIAN, F3, H21)

PRE_AZ = GradingSpec(GradingCase.PRESWITCH_AZ, H21, 1)
PRE_GH = GradingSpec(GradingCase.PRESWITCH_GH, H21, 1, pi_residue=1)
BIG = GradingSpec(GradingCase.BIG_FIELD, H21, 1)


def big_config():
    return SwitchConfig(F27, F27.one(), F27.gen(), 1)


def test_modulus_and_step():
    assert PRE_AZ.N == 18 and BIG.N == 18
    assert BIG.step == 3
    assert len(list(BIG.labels())) == 27


def test_preswitch_degrees_frozen():
    # x and ybar both sit in degree 1, y in degree q-1
    assert PRE_AZ.degree_of_monomial(Monomial(1, 0)) == 1
    assert PRE_AZ.degree_of_monomial(Monomial(0, 2)) == 1
    assert PRE_AZ.degree_of_monomial(Monomial(0, 1)) == 2
    assert PRE_GH.degree_of_label(Label(0, -1, 0)) == 2


def test_switched_degrees_frozen():
    assert BIG.degree_of_label(Label(-1, 0, 0)) == 1
    assert BIG.degree_of_label(Label(1, -1, 0)) == 1
    prime = GradingSpec(GradingCase.PRIME_FIELD, Heights(5, 2, 1), 1, pi_residue=2)
    assert prime.N == 100
    assert prime.degree_of_label(Label(0, -1, 0)) == 4


def test_label_chart_bijection():
    seen = set()
    for lab in BIG.labels():
        mono = BIG.monomial_of_label(lab)
        assert BIG.label_of_monomial(mono) == lab
        seen.add(mono)
    assert seen == set(H21.monomials())


def test_spec_validation():
    with pytest.raises(ValueError):
        GradingSpec(GradingCase.BIG_FIELD, Heights(3, 1, 1), 1)
    # preswitch-az tolerates n1 != s+1
    GradingSpec(GradingCase.PRESWITCH_AZ, Heights(3, 2, 1), 0)


def test_switch_config_validation():
    with pytest.raises(ValueError):
        SwitchConfig(F27, F27.zero(), F27.gen(), 1)
    with pytest.raises(ValueError):
        SwitchConfig(F3, F3.one(), F3.zero(), 1)
    SwitchConfig(F3, F3.one(), F3.zero(), 1, allow_zero_pi=True)
    assert big_config().eigen_compatible()


def test_monomial_grading_holds():
    assert monomial_grading_violations(AZ, PRE_AZ) == []
    assert monomial_grading_violations(GH, PRE_GH) == []


def test_closed_basis_scalars_frozen():
    closed = build_closed_basis(AZ, BIG, big_config())
    # at j = 0 the scalar is a! sigma^a
    assert closed.scalars[Label(0, -1, 2)] == F27.element(2)
    assert closed.scalars[Label(1, 0, 1)] == F27.parse_element("t^2+2t")
    # generator vectors (1 + x^(3))^alpha times a monomial
    assert closed.vectors[Label(-1, 0, 0)].text() == (
        "(1)*x^(1)y^(0) + (t)*x^(4)y^(0) + (t^2+2t)*x^(7)y^(0)"
    )
    assert closed.vectors[Label(1, -1, 0)].text() == (
        "(1)*x^(0)y^(2) + (2t)*x^(3)y^(2) + (t^2+t)*x^(6)y^(2)"
    )


def test_closed_basis_excluded_top():
    spec = GradingSpec(GradingCase.PRIME_FIELD, H21, 1, pi_residue=1)
    cfg = SwitchConfig(F3, F3.one(), F3.one(), 1)
    gh = build_closed_basis(GH, spec, cfg)
    top = Label(spec.q - 2, spec.step - 2, 2)
    assert gh.vectors[top].is_zero()
    assert gh.scalars[top].is_zero()
    assert len(gh.active_labels) == GH.dim


def nonzero_element(field, data):
    """A random nonzero element of field, by the base-p digits of a number
    in [1, p^m), so no draw is filtered out."""
    k = data.draw(st.integers(1, field.p ** field.m - 1))
    return field.element([k // field.p ** r % field.p for r in range(field.m)])


# (p, s, n) of the shift property: p in {3, 5}, s in {0, 1}
SHIFT_SHAPES = [(3, 0, 1), (3, 0, 2), (3, 1, 1), (3, 1, 2), (5, 0, 1), (5, 1, 1)]


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(SHIFT_SHAPES), st.booleans(), st.data())
def test_closed_vectors_are_shifted_powers(shape, big, data):
    """Each closed vector at (j, k, a) is the generalized power at alpha =
    -j pi + a (big field) or a (prime field) times x^(k+1) y^(j+1), the
    product taken by the reference of `oracles`, then projected; random
    sigma and pi, on the configurations where build_closed_basis succeeds."""
    p, s, n = shape
    h = Heights(p, s + 1, n)
    if big:
        field = FieldParams(p, p, standard_modulus(p))
        desc = AlgebraDescriptor(Family.ALBERT_ZASSENHAUS, field, h)
        case = GradingCase.BIG_FIELD
    else:
        field = FieldParams.prime(p)
        desc = AlgebraDescriptor(Family.GRADED_HAMILTONIAN, field, h)
        case = GradingCase.PRIME_FIELD
    sigma, pi = nonzero_element(field, data), nonzero_element(field, data)
    spec = GradingSpec(case, h, s, pi.as_int() if pi.in_prime_field() else 0)
    try:
        closed = build_closed_basis(desc, spec, SwitchConfig(field, sigma, pi, s))
    except ValueError:
        assume(False)
    for lab in closed.labels:
        j, k, a = lab
        if desc.excluded and lab == Label(spec.q - 2, spec.step - 2, p - 1):
            assert closed.vectors[lab].is_zero()  # it would need the top monomial
            continue
        alpha = -field.element(j) * pi + a if big else field.element(a)
        mono = AlgebraElement.from_monomial(field, h, Monomial(k + 1, j + 1))
        expected = product(generalized_power(field, h, sigma, alpha, s), mono)
        assert closed.vectors[lab] == desc.project(expected), lab


def test_closed_basis_builds_one_power_per_series(monkeypatch):
    """build_closed_basis computes the generalized power once per (j, a),
    q p times: 27 at p = 3, n = 2, s = 2, where there are 243 labels."""
    calls, power = [], grading.generalized_power

    def counted(*args):
        calls.append(1)
        return power(*args)
    monkeypatch.setattr(grading, "generalized_power", counted)
    h = Heights(3, 3, 2)
    desc = AlgebraDescriptor(Family.ALBERT_ZASSENHAUS, F27, h)
    closed = build_closed_basis(desc, GradingSpec(GradingCase.BIG_FIELD, h, 2),
                                SwitchConfig(F27, F27.one(), F27.gen(), 2))
    assert (len(closed.labels), len(calls)) == (243, 27)


def test_switch_matches_closed_form_up_to_scalar():
    cfg = big_config()
    deriv = Derivation(AZ, 1)
    raw = switch_grading(AZ, PRE_AZ, deriv, cfg)
    closed = build_closed_basis(AZ, BIG, cfg)
    assert raw.spec.case is GradingCase.BIG_FIELD
    for lab in closed.active_labels:
        assert closed.vectors[lab] == raw.vectors[lab].scale(closed.scalars[lab])
        assert not closed.scalars[lab].is_zero()


@pytest.mark.parametrize("desc, pre, cfg", [
    (AZ, PRE_AZ, big_config()),
    (GH, GradingSpec(GradingCase.PRESWITCH_GH, H21, 1, pi_residue=2),
     SwitchConfig(F3, F3.one(), F3.element(2), 1)),
])
def test_switch_grading_produces_the_switched_spec(desc, pre, cfg):
    assert switch_grading(desc, pre, Derivation(desc, 1), cfg).spec == pre.switched()


def test_switch_hypothesis_failures():
    deriv = Derivation(AZ, 1)
    bad = SwitchConfig(F27, F27.one(), F27.one(), 1)  # pi^p - pi = 0 != 1
    with pytest.raises(ValueError):
        switch_grading(AZ, PRE_AZ, deriv, bad)
    with pytest.raises(ValueError):
        switch_grading(AZ, BIG, deriv, big_config())


def planted_switch(entries):
    """switch_grading on AZ over F_27 with entries {m: (c, k)}, D m = c k,
    of the derivation's monomial map replaced, or deleted for None."""
    deriv = Derivation(AZ, 1)
    index = AZ.basis.index
    for m, hit in entries.items():
        if hit is None:
            del deriv.table[index(m)]
        else:
            deriv.table[index(m)] = (hit[0], index(hit[1]))
    switch_grading(AZ, PRE_AZ, deriv, big_config())


def test_switch_hypothesis_failures_name_the_monomial():
    m00, m60, m52, m82 = Monomial(0, 0), Monomial(6, 0), Monomial(5, 2), Monomial(8, 2)
    # D moves every monomial by degree 6; the identity row moves x^(4)y^(1) by 0
    with pytest.raises(ValueError, match=r"not graded of one degree: it moves "
                       r"Monomial\(i=4, j=1\) by 0, earlier monomials by 6"):
        planted_switch({Monomial(4, 1): (1, Monomial(4, 1))})
    # x^(6) and x^(5)y^(2) share a degree; joining the 1, x^(6), x^(3) cycle
    # and the x^(5)y^(2) one (wrap 2) into one 6-cycle, D^p 1 = 2 x^(8)y^(2)
    # and D^(p^2) 1 = x^(8)y^(2)
    with pytest.raises(ValueError, match=r"D\^\(p\^2\) != lam\^\(\(p-1\)p\) D\^p "
                       r"on Monomial\(i=0, j=0\)"):
        planted_switch({m00: (1, m52), m82: (1, m60)})
    # with the chain cut after x^(8)y^(2), D^p 1 = 2 x^(8)y^(2) and D^(p^2) 1 = 0
    with pytest.raises(ValueError, match=r"D\^\(p\^2\) != lam\^\(\(p-1\)p\) D\^p "
                       r"on Monomial\(i=0, j=0\)"):
        planted_switch({m00: (1, m52), m82: None})
    # sending 1 into the x^(5)y^(2) cycle alone, D^(p^2) 1 = D^p 1 = 2 x^(8)y^(2)
    with pytest.raises(ValueError, match=r"D\^p is not diagonal on the monomial basis: "
                       r"D\^p Monomial\(i=0, j=0\) has support "
                       r"\[Monomial\(i=8, j=2\)\]"):
        planted_switch({m00: (1, m52)})


def test_sigma_outside_prime_field_fails_at_d_p2():
    # (pi^p - pi) sigma^p = 1 holds, but lam^((p-1)p) != 1 while D^p has
    # eigenvalues in F_p, so no eigenvalue a*lam^p can leave F_p
    cfg = SwitchConfig(F27, F27.parse_element("t^2+t"), F27.parse_element("2t^2+t"), 1)
    assert cfg.eigen_compatible()
    with pytest.raises(ValueError, match=r"D\^\(p\^2\) .* on Monomial\(i=0, j=0\)"):
        switch_grading(AZ, PRE_AZ, Derivation(AZ, 1), cfg)


def test_zero_derivation_switches_identically():
    spec = GradingSpec(GradingCase.PRESWITCH_GH, H21, 1, pi_residue=1)
    deriv = Derivation(GH, 2)  # (ad y)^9 = 0 at xbound 9
    cfg = SwitchConfig(F3, F3.one(), F3.one(), 1)
    out = switch_grading(GH, spec, deriv, cfg)
    assert out.spec.case is GradingCase.PRESWITCH_GH
    for lab in out.active_labels:
        assert out.vectors[lab] == GH.basis_element(spec.monomial_of_label(lab))


def test_check_graded():
    cfg = big_config()
    closed = build_closed_basis(AZ, BIG, cfg)
    assert check_graded(AZ, closed) == check_graded(AZ, closed, cfg) == ([], [])
    deriv = Derivation(AZ, 1)
    assert check_graded(AZ, switch_grading(AZ, PRE_AZ, deriv, cfg)) == ([], [])
    # planting a vector of the wrong degree is caught by both checks
    l1, l2 = Label(-1, 0, 0), Label(0, -1, 0)
    closed.vectors[l1], closed.vectors[l2] = closed.vectors[l2], closed.vectors[l1]
    strays, misses = check_graded(AZ, closed, cfg)
    assert strays and misses
    # a zero bracket where the rules predict a nonzero one is a miss too
    assert any(AZ.bracket(closed.vectors[a], closed.vectors[b]).is_zero() for a, b in misses)
    assert check_graded(AZ, closed) == (strays, [])
    # a wrong degree on one label: every bracket still equals its prediction
    # c v_L, but v_L no longer lies in the echelon of the degree sum
    closed = build_closed_basis(AZ, BIG, cfg)
    closed.degrees[l1] = (closed.degrees[l1] + 1) % BIG.N
    strays, misses = check_graded(AZ, closed, cfg)
    assert strays and misses == []
    assert check_graded(AZ, closed) == (strays, [])


def test_product_tables():
    cfg = big_config()
    closed = build_closed_basis(AZ, BIG, cfg)
    assert verify_product_tables(AZ, closed, cfg) == []
    spec = GradingSpec(GradingCase.PRIME_FIELD, H21, 1, pi_residue=1)
    gcfg = SwitchConfig(F3, F3.one(), F3.one(), 1)
    gh = build_closed_basis(GH, spec, gcfg)
    assert verify_product_tables(GH, gh, gcfg) == []
    with pytest.raises(ValueError):
        verify_product_tables(AZ, build_closed_basis(AZ, PRE_AZ, None), cfg)


def test_product_tables_catch_corruption():
    cfg = big_config()
    closed = build_closed_basis(AZ, BIG, cfg)
    lab = Label(0, 0, 1)
    closed.vectors[lab] = closed.vectors[lab].scale(2)
    assert verify_product_tables(AZ, closed, cfg) != []


def test_laguerre_at_zero_is_truncated_exponential():
    deriv = Derivation(AZ, 1)
    v = AZ.basis_element(Monomial(7, 2))
    out = laguerre_apply(F27.zero(), deriv, v, scale=F27.one())
    # direct sum v + Dv + D^2 v / 2!
    d1 = deriv.apply(v)
    d2 = deriv.apply(d1)
    assert out == v + d1 + d2.scale(F27.element(2).inverse())


# (family, field, heights, s) of the Laguerre series property
LAGUERRE_SHAPES = [
    (Family.ALBERT_ZASSENHAUS, F3, H21, 1), (Family.GRADED_HAMILTONIAN, F3, H21, 1),
    (Family.ALBERT_ZASSENHAUS, F27, H21, 1), (Family.GRADED_HAMILTONIAN, F27, Heights(3, 1, 2), 0),
    (Family.ALBERT_ZASSENHAUS, FieldParams(5, 2, (2, 1, 1)), Heights(5, 1, 1), 0),
    # n1 != s + 1: D is the iterated table
    (Family.ALBERT_ZASSENHAUS, F27, H21, 0), (Family.GRADED_HAMILTONIAN, F3, H21, 2),
    (Family.ALBERT_ZASSENHAUS, F3, Heights(3, 1, 2), 1)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(LAGUERRE_SHAPES), st.data())
def test_laguerre_series_matches_element_oracle(shape, data):
    """The series on the rows of D's integer table equals
    `oracles.laguerre_series`, which applies D to elements, on a random
    element v of up to six basis monomials and p random coefficients (zero
    ones included), over F_3, F_25 and F_27, with the closed-form D and
    with the iterated one (n1 != s + 1)."""
    family, field, heights, s = shape
    desc = AlgebraDescriptor(family, field, heights)
    deriv = Derivation(desc, s)
    monos = data.draw(st.lists(st.sampled_from(desc.basis), max_size=6))
    element = st.builds(lambda k: field.element(
        [k // field.p ** r % field.p for r in range(field.m)]), st.integers(0, field.order - 1))
    v = AlgebraElement(field, heights, [(m, data.draw(element)) for m in monos])
    coeffs = [data.draw(element) for _ in range(field.p)]
    assert grading._laguerre_series(coeffs, deriv, v) == oracles.laguerre_series(coeffs, deriv, v)


def test_serialize_parse_round_trip():
    cfg = big_config()
    closed = build_closed_basis(AZ, BIG, cfg)
    text = closed.serialize()
    back = GradedBasis.parse(AZ, BIG, text)
    assert back.labels == closed.labels
    assert back.vectors == closed.vectors
    assert back.degrees == closed.degrees
    assert back.scalars == closed.scalars
    assert back.serialize() == text


def test_validate_rank_rejects_dependence():
    cfg = big_config()
    closed = build_closed_basis(AZ, BIG, cfg)
    closed.vectors[Label(0, 0, 1)] = closed.vectors[Label(0, 0, 2)]
    with pytest.raises(ValueError):
        closed.validate_rank(AZ)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([F3, F27]), st.integers(1, 2), st.data())
def test_validate_rank_matches_oracle_rank(field, n, data):
    """validate_rank accepts a basis iff the FieldElement echelon of
    `oracles` inserts every nonzero vector, and else names the first one
    that echelon finds dependent.  The vectors are independent rows with
    distinct leads, each plus random multiples of the vectors before it,
    over F_3 or F_27; at most one, planted, is only such a combination,
    dependent (or zero)."""
    h = Heights(3, 1, n)
    desc = AlgebraDescriptor(Family.ALBERT_ZASSENHAUS, field, h)
    spec = GradingSpec(GradingCase.BIG_FIELD, h, 0)
    labels = list(spec.labels())
    planted = data.draw(st.sampled_from([None, *range(1, desc.dim)]))
    vectors = []
    for i, mono in enumerate(data.draw(st.permutations(desc.basis))):
        v = desc.basis_element(mono, nonzero_element(field, data))
        later = [m for m in desc.basis if m > mono]
        for m in data.draw(st.lists(st.sampled_from(later), max_size=3)) if later else []:
            v = v + desc.basis_element(m, nonzero_element(field, data))
        if i == planted:
            v = desc.zero()
        for u in data.draw(st.lists(st.sampled_from(vectors), min_size=int(i == planted),
                                    max_size=3)) if vectors else []:
            v = v + u.scale(nonzero_element(field, data))
        vectors.append(v)
    vectors = dict(zip(labels, vectors))
    basis = GradedBasis(spec, field, labels, vectors, {lab: 0 for lab in labels},
                        {lab: field.one() for lab in labels})
    active = [lab for lab in labels if vectors[lab]]
    ech = Echelon()
    dependent = next((lab for lab in active if not ech.insert(vectors[lab])), None)
    if len(active) != desc.dim:
        message = f"basis has {len(active)} nonzero vectors, expected {desc.dim}"
    elif dependent is not None:
        message = f"basis vector at label {dependent} is dependent"
    else:
        basis.validate_rank(desc)
        return
    with pytest.raises(ValueError, match=re.escape(message)):
        basis.validate_rank(desc)


def switched(case, p, n, s, pi, sigma=1):
    """(descriptor, raw, closed, cfg) of one switch, as `thinlie switch` builds them."""
    h = Heights(p, s + 1, n)
    if case is GradingCase.BIG_FIELD:
        field = FieldParams(p, p, standard_modulus(p))
        family, pre_case, pihat = Family.ALBERT_ZASSENHAUS, GradingCase.PRESWITCH_AZ, 0
        pi = field.gen() + pi
    else:
        field = FieldParams.prime(p)
        family, pre_case, pihat = Family.GRADED_HAMILTONIAN, GradingCase.PRESWITCH_GH, pi
    desc = AlgebraDescriptor(family, field, h)
    cfg = SwitchConfig(field, sigma, pi, s)
    raw = switch_grading(desc, GradingSpec(pre_case, h, s, pihat), Derivation(desc, s), cfg)
    closed = build_closed_basis(desc, GradingSpec(case, h, s, pihat), cfg)
    return desc, raw, closed, cfg


def swap_labels(raw, closed, l1, l2):
    """Exchange the vectors (and closed scalars) of two labels in both bases;
    the scalar link survives, the grading does not."""
    for basis in (raw, closed):
        basis.vectors[l1], basis.vectors[l2] = basis.vectors[l2], basis.vectors[l1]
    closed.scalars[l1], closed.scalars[l2] = closed.scalars[l2], closed.scalars[l1]


def counting_brackets(desc):
    """Wrap desc.bracket; the returned list grows by one per call."""
    calls, bracket = [], desc.bracket

    def counted(u, v):
        calls.append(1)
        return bracket(u, v)
    desc.bracket = counted
    return calls


def spying_sweep(mp, calls=()):
    """Wrap `grading._pair_sweep`; the returned list gets, per sweep, how
    many entries `calls` (see `counting_brackets`) gained inside it."""
    sweeps, sweep = [], grading._pair_sweep

    def spied(*args):
        before = len(calls)
        out = sweep(*args)
        sweeps.append(len(calls) - before)
        return out
    mp.setattr(grading, "_pair_sweep", spied)
    return sweeps


def degree_one_pair(closed) -> bool:
    """Whether both degree-1 labels X and Y are active.  GH at s = 0 puts
    one of them on an excluded monomial when pi = -1 or 2 pi = -1 mod p;
    there the certificate takes further generators, whose brackets can
    also catch a planting away from X and Y, so the blind checks below
    need both."""
    return sum(closed.degrees[lab] == 1 for lab in closed.active_labels) == 2


# (p, n, s) with p^(s+1+n) <= 125 monomials
SMALL_SHAPES = [(3, n, s) for s in range(3) for n in range(1, 4 - s)] + [
    (5, 1, 0), (5, 2, 0), (5, 1, 1)]


@settings(max_examples=8, deadline=None)
@given(st.sampled_from(SMALL_SHAPES), st.booleans(), st.data())
def test_raw_grading_follows_from_closed(shape, big, data):
    """closed = raw x scalar on every label of admissible switches (big
    field: pi = t + c; prime field: pi in 1..p-1), and the graded_raw that
    switch_checks derives from the closed check equals a direct raw sweep,
    also after swapping two labels in both bases.  Unswapped, the switch
    passes without entering the pair sweep, also where X or Y is a
    placeholder."""
    p, n, s = shape
    if big:
        case, pi, sigma = GradingCase.BIG_FIELD, data.draw(st.integers(0, p - 1)), 1
    else:
        case = GradingCase.PRIME_FIELD
        pi, sigma = data.draw(st.integers(1, p - 1)), data.draw(st.integers(1, p - 1))
    desc, raw, closed, cfg = switched(case, p, n, s, pi, sigma)
    for lab in closed.labels:
        assert closed.vectors[lab] == raw.vectors[lab].scale(closed.scalars[lab])
    active = closed.active_labels
    swapped = data.draw(st.booleans())
    if swapped:
        l1, l2 = data.draw(st.lists(st.sampled_from(active), min_size=2, max_size=2,
                                    unique=True))
        swap_labels(raw, closed, l1, l2)
    with pytest.MonkeyPatch.context() as mp:
        sweeps = spying_sweep(mp)
        graded_raw, graded_closed, link, tables = switch_checks(desc, raw, closed, cfg)
    assert link == [] and bool(graded_closed) == bool(graded_raw)
    assert graded_raw == check_graded(desc, raw)[0]
    if not swapped:  # the generator certificate alone passes the unplanted switch
        assert (graded_closed, tables) == ([], [])
        assert sweeps == []


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(SMALL_SHAPES), st.booleans(), st.data())
def test_rule_table_matches_pairwise_oracle(shape, big, data):
    """The factored table of `_product_rule` reads, on every ordered pair of
    active labels, the (c, L) of the per-pair rule of `oracles`, with L
    as an active index, and a target on a zero placeholder read as the
    vanishing prediction; Albert-Zassenhaus over F_(p^p) and Graded
    Hamiltonian over F_p, with random sigma and pi (compatible or not)."""
    p, n, s = shape
    h = Heights(p, s + 1, n)
    if big:
        field = FieldParams(p, p, standard_modulus(p))
        family, case = Family.ALBERT_ZASSENHAUS, GradingCase.BIG_FIELD
    else:
        field = FieldParams.prime(p)
        family, case = Family.GRADED_HAMILTONIAN, GradingCase.PRIME_FIELD
    desc = AlgebraDescriptor(family, field, h)
    sigma, pi = nonzero_element(field, data), nonzero_element(field, data)
    spec = GradingSpec(case, h, s, pi.as_int() if pi.in_prime_field() else 0)
    cfg = SwitchConfig(field, sigma, pi, s)
    try:
        closed = build_closed_basis(desc, spec, cfg)
    except ValueError:
        assume(False)
    table, rule = grading._product_rule(closed, cfg), product_rule(closed, cfg)
    assert table.active == closed.active_labels
    index = {lab: i for i, lab in enumerate(table.active)}
    zero = (0,) * field.m
    for la, a in index.items():
        for lb, b in index.items():
            c, lab = rule(la, lb)
            assert lab is not None or not any(c), (la, lb)  # every nonzero rule has a target
            if lab is not None and lab not in index:
                c, lab = zero, None
            assert table.rule(a, b) == (c, index.get(lab)), (la, lb)


@pytest.mark.parametrize("p", [3, 5])
def test_rule_table_matches_pairwise_oracle_at_gh_placeholders(p):
    """The comparison above at Graded Hamiltonian (p, n, s) = (p, 1, 1),
    sigma = pi = 1, on every ordered pair: at s >= 1 some class rules
    point at a zero placeholder, which the table must read as vanishing."""
    h = Heights(p, 2, 1)
    field = FieldParams.prime(p)
    desc = AlgebraDescriptor(Family.GRADED_HAMILTONIAN, field, h)
    cfg = SwitchConfig(field, field.one(), field.one(), 1)
    closed = build_closed_basis(desc, GradingSpec(GradingCase.PRIME_FIELD, h, 1, 1), cfg)
    table, rule = grading._product_rule(closed, cfg), product_rule(closed, cfg)
    index = {lab: i for i, lab in enumerate(table.active)}
    wrong = []
    for la, a in index.items():
        for lb, b in index.items():
            c, lab = rule(la, lb)
            expected = (c, index[lab]) if lab in index else ((0,), None)
            if table.rule(a, b) != expected:
                wrong.append((la, lb))
    assert wrong == []


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(SMALL_SHAPES), st.booleans(), st.data())
def test_rules_certificate_matches_full_table_oracle(shape, big, data):
    """`_rules_certified`, which checks the laws of T' once on the class
    table C and per fibre only on the rows the block or a placeholder
    enters, gives the verdict of the certificate on all of T' in
    `oracles`: on admissible switches of Albert-Zassenhaus over F_(p^p)
    (pi = t / sigma + c) and Graded Hamiltonian over F_p (sigma, pi in
    F_p^*), with random sigma and pi, where both pass, and with one
    planted fault, the coefficient scaled on one order or on both: of a
    class entry, which moves every fibre pair of its two classes, of a
    block entry at a single fibre pair, or, on Graded Hamiltonian, of a
    class entry onto a class with a zero placeholder."""
    p, n, s = shape
    h = Heights(p, s + 1, n)
    sigma, c = data.draw(st.integers(1, p - 1)), data.draw(st.integers(0, p - 1))
    if big:
        field = FieldParams(p, p, standard_modulus(p))
        family, case = Family.ALBERT_ZASSENHAUS, GradingCase.BIG_FIELD
        pi, residue = field.gen() * pow(sigma, -1, p) + c, 0
    else:
        field = FieldParams.prime(p)
        family, case = Family.GRADED_HAMILTONIAN, GradingCase.PRIME_FIELD
        residue = data.draw(st.integers(1, p - 1))
        pi = field.element(residue)
    desc = AlgebraDescriptor(family, field, h)
    cfg = SwitchConfig(field, field.element(sigma), pi, s)
    closed = build_closed_basis(desc, GradingSpec(case, h, s, residue), cfg)
    table = grading._product_rule(closed, cfg)
    planting = data.draw(st.sampled_from(["none", "class", "block"] + ["placeholder"] * (not big)))
    if planting == "none":
        assert grading._rules_certified(desc, closed, table)
    scale, both = data.draw(st.integers(2, p - 1)), data.draw(st.booleans())
    if planting == "block":
        entries = [(layer, a, b) for layer in table.block for a, row in enumerate(layer)
                   for b in row]
    else:  # a class entry, onto a class with a placeholder for "placeholder"
        entries = [(table.classes, a, b) for a, row in enumerate(table.classes)
                   for b, (_x, e) in row.items()
                   if planting == "class" or None in table.fibres[e][0]]
    if planting != "none":
        assume(entries)
        layer, a, b = data.draw(st.sampled_from(entries))
        for u, v in ((a, b), (b, a)) if both else ((a, b),):
            x, t = layer[u][v]
            layer[u][v] = (x * scale % p, t)
    assert grading._rules_certified(desc, closed, table) == oracles.full_rules_certified(
        desc, closed, table)


@pytest.mark.parametrize("case, p, n, s, pi, sigma", [
    (GradingCase.BIG_FIELD, 3, 1, 1, 0, 1), (GradingCase.BIG_FIELD, 3, 2, 2, 1, 1),
    (GradingCase.PRIME_FIELD, 3, 1, 2, 1, 1), (GradingCase.PRIME_FIELD, 5, 1, 1, 2, 3)])
def test_certificate_walks_the_full_expansion(case, p, n, s, pi, sigma, monkeypatch):
    """The rows of T' that the certificate walks, and sums per fibre, are
    the dim x dim expansion of `oracles.rule_layers`: the block, and every
    class entry of C at the fibre sum a + b, none onto a placeholder (the
    GradedHamiltonian switches have two), on Albert-Zassenhaus over F_27
    and Graded Hamiltonian over F_3 and F_5."""
    desc, _raw, closed, cfg = switched(case, p, n, s, pi, sigma)
    table, walked, walk = grading._product_rule(closed, cfg), [], grading.table_generators

    def spied(rows, candidates):
        walked.append(rows)
        return walk(rows, candidates)
    monkeypatch.setattr(grading, "table_generators", spied)
    assert grading._rules_certified(desc, closed, table)
    assert walked == [oracles.rule_layers(table)]


def test_fibre_pass_visits_the_block_rows_and_those_meeting_a_placeholder(monkeypatch):
    """The per-fibre derivation pass of a passing switch visits, in index
    order, the labels at k = -1 and the labels whose class row in C has an
    entry onto a class with a zero placeholder, whose pairs T' drops.  The
    GradedHamiltonian switch at p = 3, s = 2 has placeholders at
    (-1, -1, 0) and (1, 7, 2); the big field at dimension 27 has none."""
    visits, kernel = [], liealg.derivation_defects

    def spied(rows, derivations, field, half=False, visit=None):
        visits.append(visit)
        return kernel(rows, derivations, field, half, visit)
    monkeypatch.setattr(liealg, "derivation_defects", spied)
    for case, pi, holes in ((GradingCase.PRIME_FIELD, 1, {(-1, -1), (1, 7)}),
                            (GradingCase.BIG_FIELD, 0, set())):
        desc, _raw, closed, cfg = switched(case, 3, 1, 2 if holes else 1, pi)
        table = grading._product_rule(closed, cfg)
        assert {lab[:2] for lab in closed.labels if lab not in closed.active_labels} == holes
        ps = closed.spec.step
        hole_classes = {(j + 1) * ps + k + 1 for j, k in holes}
        visits[:] = []
        assert grading._rules_certified(desc, closed, table)
        assert visits[-1] == [i for i, lab in enumerate(table.active) if lab.k == -1 or any(
            e in hole_classes for _x, e in table.classes[table.place[i][0]].values())]
        assert len(visits[-1]) > sum(lab.k == -1 for lab in table.active) or not holes


def test_block_fault_away_from_the_generators_needs_the_fibre_pass(monkeypatch):
    """A block coefficient scaled by 2 on both orders of one pair of labels
    at k = -1, neither of them X or Y, keeps T' anticommutative and graded
    and leaves C and the brackets of the generators as they are: only the
    derivation pass per fibre, over the rows at k = -1, sees it.  Over
    F_27 the certificate refuses it, as the full-table oracle does, and
    passes it once the kernel is blinded on those rows."""
    desc, _raw, closed, cfg = switched(GradingCase.BIG_FIELD, 3, 1, 1, 0)
    table = grading._product_rule(closed, cfg)
    degree_one = [i for i, lab in enumerate(table.active) if closed.degrees[lab] == 1]
    r, a, b = next((r, a, b) for r, layer in enumerate(table.block)
                   for a, row in enumerate(layer) for b in row
                   if a < b and not {a, b} & set(degree_one))
    for u, v in ((a, b), (b, a)):
        x, t = table.block[r][u][v]
        table.block[r][u][v] = (2 * x % 3, t)
    assert not grading._rules_certified(desc, closed, table)
    assert not oracles.full_rules_certified(desc, closed, table)
    kernel = liealg.derivation_defects
    monkeypatch.setattr(liealg, "derivation_defects",
                        lambda rows, ds, field, half=False, visit=None:
                        kernel(rows, ds, field, half, visit) if visit is None else iter(()))
    assert grading._rules_certified(desc, closed, table)


def test_switch_grading_computes_coefficients_per_eigenvalue(monkeypatch):
    """switch_grading computes the Laguerre coefficients once per eigenvalue
    of D^p, p falling factorials each: at most p^2 calls, where one series
    per monomial made dim p.  The D of Albert-Zassenhaus has all p
    eigenvalues, so at p = 3, dim 81 that is 9 calls instead of 243."""
    calls, falling = [], grading.falling_factorial

    def counted(*args):
        calls.append(1)
        return falling(*args)
    monkeypatch.setattr(grading, "falling_factorial", counted)
    h = Heights(3, 2, 2)
    desc = AlgebraDescriptor(Family.ALBERT_ZASSENHAUS, F27, h)
    switch_grading(desc, GradingSpec(GradingCase.PRESWITCH_AZ, h, 1), Derivation(desc, 1),
                   big_config())
    assert (desc.dim, len(calls)) == (81, 3 * 3)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([F27, FieldParams(5, 5, standard_modulus(5))]), st.data())
def test_switch_coefficients_match_binomial_oracle(field, data):
    """The switch's three coefficient formulas, written as falling
    factorials by Wilson's theorem, equal their binomial definitions by
    `oracles.falling_binomial` over F_27 and F_3125: the Laguerre
    coefficients, the generalized power and the closed scalar, at a random
    sigma and a random alpha, half the time in the prime field, where the
    scalar's denominator can vanish."""
    p = field.p
    if data.draw(st.booleans()):
        alpha = field.element(data.draw(st.integers(0, p - 1)))
    else:
        alpha = field.element([data.draw(st.integers(0, p - 1)) for _ in range(field.m)])
    sigma = nonzero_element(field, data)
    assert grading._laguerre_coefficients(alpha, sigma) == [
        falling_binomial(alpha + (p - 1), p - 1 - k) * (-1) ** k
        * field.element(pow(math.factorial(k), -1, p)) * sigma ** k for k in range(p)]
    h = Heights(p, 1, 1)
    assert generalized_power(field, h, sigma, alpha, 0) == AlgebraElement(field, h, [
        (Monomial(i, 0), falling_binomial(alpha, i) * math.factorial(i) * sigma ** i)
        for i in range(p)])
    cfg = SwitchConfig(field, sigma, field.one(), 0)
    for a in range(p):
        den = falling_binomial(alpha - a + (p - 1), p - 1)
        if den.is_zero():
            with pytest.raises(ValueError, match="closed-basis scalar undefined"):
                grading._closed_scalar(cfg, 0, a, alpha)
        else:
            assert grading._closed_scalar(cfg, 0, a, alpha) == (
                math.factorial(a) * sigma ** a * falling_binomial(alpha, a) / den)


def stray_digest(strays) -> str:
    return hashlib.sha256("\n".join(f"{a.text()} {b.text()} {w.text()}"
                                     for a, b, w in strays).encode()).hexdigest()


def test_passing_sweep_reduces_nothing(monkeypatch):
    """On a passing switch the generator certificate proves every rule, so
    switch_checks builds no echelon and reduces nothing; the raw basis has
    no predictions, so its own sweep reduces every nonzero bracket."""
    desc, raw, closed, cfg = switched(GradingCase.BIG_FIELD, 3, 1, 1, 0)
    calls = []
    for name in ("insert", "reduce"):
        def counted(self, v, method=getattr(SparseEchelon, name), name=name):
            calls.append(name)
            return method(self, v)
        monkeypatch.setattr(SparseEchelon, name, counted)
    assert switch_checks(desc, raw, closed, cfg) == ([], [], [], [])
    assert calls == []
    assert check_graded(desc, raw) == ([], [])
    assert "reduce" in calls


def test_switch_checks_planted_swap_and_broken_link(monkeypatch):
    desc, raw, closed, cfg = switched(GradingCase.BIG_FIELD, 3, 1, 1, 0)
    calls = counting_brackets(desc)
    sweeps = spying_sweep(monkeypatch, calls)
    assert switch_checks(desc, raw, closed, cfg) == ([], [], [], [])
    assert (len(calls), sweeps) == (2 * 27, [])
    # a swap keeps the link: the raw strays still come from the one sweep.
    # The swap moves X, so the certificate stops at its first bracket,
    # [v_X, v_x] for the first active x
    l1, l2 = Label(-1, 0, 0), Label(0, -1, 0)
    swap_labels(raw, closed, l1, l2)
    calls.clear()
    graded_raw, graded_closed, link, tables = switch_checks(desc, raw, closed, cfg)
    assert (len(calls), sweeps) == (1 + 27 * 27, [27 * 27])
    assert link == [] and tables and graded_closed
    assert graded_raw == check_graded(desc, raw)[0] != graded_closed
    # the strays the FieldElement sweep reported, 96 pairs each
    assert (len(graded_closed), len(graded_raw), len(tables)) == (96, 96, 118)
    assert stray_digest(graded_closed) == (
        "cc9d61ffe127d718e0979af91a060c0edaacc6e659bf22f64e12c4b6336516ac")
    assert stray_digest(graded_raw) == (
        "0c6be39110450faff59bfd71ab785f513d3feea4dcdc6f096c5822cce159a893")
    # a corrupted scalar breaks the link and forces a sweep of the raw basis
    closed.scalars[Label(0, 0, 1)] = closed.scalars[Label(0, 0, 1)] * 2
    calls.clear()
    sweeps.clear()
    graded_raw, graded_closed, link, _tables = switch_checks(desc, raw, closed, cfg)
    assert (len(calls), sweeps) == (1 + 2 * 27 * 27, [27 * 27] * 2)
    assert link == [Label(0, 0, 1)]
    assert graded_raw == check_graded(desc, raw)[0]
    # a table that is not anticommutative has no certificate and is swept
    desc, raw, closed, cfg = switched(GradingCase.BIG_FIELD, 3, 1, 1, 0)
    break_anticommutativity(desc, 0)
    calls = counting_brackets(desc)
    sweeps = spying_sweep(monkeypatch, calls)
    switch_checks(desc, raw, closed, cfg)
    assert (len(calls), sweeps) == (27 ** 2, [27 ** 2])


def break_anticommutativity(desc, which: int):
    """Double the constant of one table entry [b_i, b_j], i < j, picked by
    `which`, so that [b_i, b_j] != -[b_j, b_i]."""
    p = desc.heights.p
    entries = [(i, j) for i, row in enumerate(desc.table) for j in row if j > i]
    i, j = entries[which % len(entries)]
    c, k = desc.table[i][j]
    desc.table[i][j] = (2 * c % p, k)
    assert anticommutativity_violations(desc) == [(desc.basis[i], desc.basis[j])]


def set_rule(table, a, b, c, t):
    """Make `RuleTable.rule(a, b)` of table read (c, t).  A pair of two
    labels at k = -1 is a block pair, set in the block alone.  Any other
    pair with a target is set in the class table C, so every pair of its
    two classes moves with it, at its own fibre sum.  A nonzero c needs a
    target."""
    assert t is not None or not any(c)
    la, lb = table.active[a], table.active[b]
    if la.k == lb.k == -1:
        for layer, x in zip(table.block, c):
            if x:
                layer[a][b] = (x, t)
            else:
                layer[a].pop(b, None)
    elif t is not None:
        (ca, _fa), (cb, _fb) = table.place[a], table.place[b]
        assert not any(c[1:])  # C holds coefficients in F_p
        if c[0]:
            table.classes[ca][cb] = (c[0], table.place[t][0])
        else:
            table.classes[ca].pop(cb, None)


def perturbed_rule(pair):
    """`_product_rule` with the coefficient of one ordered pair shifted by 1
    in its table, so that the rules stop being antisymmetric on the pair."""
    product_rule = grading._product_rule

    def build(basis, cfg):
        table, p = product_rule(basis, cfg), basis.field.p
        a, b = map(table.active.index, pair)
        c, t = table.rule(a, b)
        set_rule(table, a, b, ((c[0] + 1) % p,) + c[1:], t)
        return table
    return build


def test_rule_broken_in_one_layer_falls_back_to_the_sweep():
    """Over F_27, a rule coefficient changed in its t^1 coordinate alone,
    still nonzero and onto the same label, breaks the antisymmetry of T' in
    layer 1 only.  The coefficient is a block entry, of two labels at
    k = -1, the one part of T' over F_27 rather than F_3.  The certificate
    refuses it, and check_graded sweeps the pairs, as the ordered sweep
    does, with the pair among the misses."""
    desc, _raw, closed, cfg = switched(GradingCase.BIG_FIELD, 3, 1, 1, 0)
    table, r = grading._product_rule(closed, cfg), 1
    a, b = next((a, b) for a, row in enumerate(table.block[r]) for b in row if a < b)
    pair, product_rule_of = (table.active[a], table.active[b]), grading._product_rule

    def build(basis, cfg):
        broken = product_rule_of(basis, cfg)
        x, t = broken.block[r][a][b]
        broken.block[r][a][b] = (x % 2 + 1, t)  # nonzero, and not x
        return broken
    with pytest.MonkeyPatch.context() as mp:
        sweeps = spying_sweep(mp)
        assert check_graded(desc, closed, cfg) == ([], []) and sweeps == []
        mp.setattr(grading, "_product_rule", build)
        layers = oracles.rule_layers(build(closed, cfg))
        assert antisymmetry_violations(layers[:r] + layers[r + 1:], 3) == []
        assert antisymmetry_violations(layers, 3) == [(a, b)]
        strays, misses = check_graded(desc, closed, cfg)
        assert len(sweeps) == 1
        assert (strays, misses) == ordered_check_graded(desc, closed, cfg)
        assert pair in misses


def break_jacobi(desc, which: int, avoid: set):
    """Double the constant of one table entry [b_i, b_j], i < j, and of
    [b_j, b_i], picked by `which` among the pairs of basis indexes outside
    avoid: the table stays anticommutative, and the brackets of vectors
    supported outside avoid never read the change."""
    p = desc.heights.p
    entries = [(i, j) for i, row in enumerate(desc.table) for j in row
               if i < j and not {i, j} & avoid]
    i, j = entries[which % len(entries)]
    for u, v in ((i, j), (j, i)):
        c, k = desc.table[u][v]
        desc.table[u][v] = (2 * c % p, k)
    assert anticommutativity_violations(desc) == []


def doubled_rule(pair):
    """`_product_rule` with the coefficient doubled on both orders of one
    pair in its table: the table stays anticommutative, graded and
    generated."""
    product_rule = grading._product_rule

    def build(basis, cfg):
        table, p = product_rule(basis, cfg), basis.field.p
        a, b = map(table.active.index, pair)
        for u, v in ((a, b), (b, a)):
            c, t = table.rule(u, v)
            set_rule(table, u, v, tuple(2 * x % p for x in c), t)
        return table
    return build


def unreached_rule(label):
    """`_product_rule` with every entry onto one label removed from its
    table, so that no bracket of other labels reaches it: the class
    entries onto its class, which every fibre shares, and the block
    entries onto the label."""
    product_rule = grading._product_rule

    def build(basis, cfg):
        table = product_rule(basis, cfg)
        t = table.active.index(label)
        for layer, onto in [(table.classes, table.place[t][0])] + [(la, t) for la in table.block]:
            for row in layer:
                for b in [b for b, (_x, u) in row.items() if u == onto]:
                    del row[b]
        return table
    return build


CORRUPTIONS = ["none", "swap", "degree", "scale", "table", "rule", "rule pair", "jacobi",
               "unreached"]


# the ordered sweep brackets dim^2 pairs, so the oracle test stops at 81
ORACLE_SHAPES = [(p, n, s) for p, n, s in SMALL_SHAPES if p ** (s + 1 + n) <= 81]


@pytest.mark.parametrize("corruption", CORRUPTIONS)
@settings(max_examples=2, deadline=None)
@given(st.sampled_from(ORACLE_SHAPES), st.booleans(), st.data())
def test_check_graded_matches_ordered_sweep(corruption, shape, big, data):
    """check_graded returns the strays and misses of the sweep over ordered
    pairs, in the same order, with and without the product rules: on
    admissible switches, after swapping two labels, putting one label in a
    wrong degree, scaling one vector by 2, breaking anticommutativity at
    one table entry or shifting the rule's coefficient on one ordered pair
    with a target (the antisymmetry test of the rules fails).  The rule
    plantings edit the table `_product_rule` returns, which both sweeps and
    the certificate read.

    Each planting must also reach the pair sweep, and the unplanted switch
    must not, which makes each licensing step of the generator certificate
    load-bearing: where X and Y generate, doubling the rule on both orders
    of a pair away from the classes of X and Y (a class pair of C moves
    every pair of its two classes) is caught by the derivation step alone,
    and
    doubling a table entry away from the supports of v_X and v_Y
    (anticommutative, not Jacobi) by the descriptor's Jacobi verdict alone,
    which the certificate reads.  A label no rule reaches becomes a
    generator of its own, so a later step, the derivation step or the
    brackets of the generators, catches it."""
    p, n, s = shape
    if big:
        case, pi, sigma = GradingCase.BIG_FIELD, data.draw(st.integers(0, p - 1)), 1
    else:
        case = GradingCase.PRIME_FIELD
        pi, sigma = data.draw(st.integers(1, p - 1)), data.draw(st.integers(1, p - 1))
    desc, raw, closed, cfg = switched(case, p, n, s, pi, sigma)
    active = closed.active_labels
    l1, l2 = data.draw(st.lists(st.sampled_from(active), min_size=2, max_size=2,
                                unique=True))
    generators = [lab for lab in active if closed.degrees[lab] == 1]
    others = [lab for lab in active if lab not in generators]
    product_rule = None
    if corruption in ("rule", "rule pair"):
        table = grading._product_rule(closed, cfg)
        index = {lab: i for i, lab in enumerate(table.active)}
    if corruption == "swap":
        swap_labels(raw, closed, l1, l2)
    elif corruption == "degree":
        closed.degrees[l1] = (closed.degrees[l1] + 1) % closed.spec.N
    elif corruption == "scale":
        closed.vectors[l1] = closed.vectors[l1].scale(2)
    elif corruption == "table":
        break_anticommutativity(desc, data.draw(st.integers(0, 10 ** 6)))
    elif corruption == "rule":  # a pair with a target, as a nonzero rule has one
        l1, l2 = data.draw(st.sampled_from([(a, b) for a in active for b in active
                                            if table.rule(index[a], index[b])[1] is not None]))
        product_rule = perturbed_rule((l1, l2))
    elif corruption == "rule pair":
        # a class pair of C moves with its two classes: keep away from those of X and Y
        away = [lab for lab in others if (lab.j, lab.k) not in {g[:2] for g in generators}]
        pairs = [(a, b) for a in away for b in away
                 if a < b and table.rule(index[a], index[b])[1] is not None]
        assume(pairs)
        product_rule = doubled_rule(data.draw(st.sampled_from(pairs)))
    elif corruption == "jacobi":
        avoid = {desc._index[m] for lab in generators
                 for m in closed.vectors[lab].support()}
        break_jacobi(desc, data.draw(st.integers(0, 10 ** 6)), avoid)
    elif corruption == "unreached":
        product_rule = unreached_rule(data.draw(st.sampled_from(others)))
    with pytest.MonkeyPatch.context() as mp:
        if product_rule is not None:
            mp.setattr(grading, "_product_rule", product_rule)
        sweeps = spying_sweep(mp)
        strays, misses = check_graded(desc, closed, cfg)
        assert (strays, misses) == ordered_check_graded(desc, closed, cfg)
        assert len(sweeps) == int(corruption != "none")
        blind = {"rule pair": lambda: mp.setattr(liealg, "derivation_defects",
                                                 lambda *args, **kwargs: iter(())),
                 "jacobi": lambda: mp.setitem(desc.__dict__, "jacobi", [])}.get(corruption)
        if blind and degree_one_pair(closed):
            blind()
            assert check_graded(desc, closed, cfg) == ([], []) != (strays, misses)
        assert check_graded(desc, raw) == ordered_check_graded(desc, raw)
    if corruption == "rule":
        assert (l1, l2) in misses
