"""Cyclic gradings, grading switching, closed bases and product tables."""

import hashlib
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import ordered_check_graded, product
from thinlie import grading
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
from thinlie.liealg import AlgebraDescriptor, Derivation, Family, anticommutativity_violations

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
    """A random nonzero element of field, drawn by its coordinates."""
    coords = st.lists(st.integers(0, field.p - 1), min_size=field.m, max_size=field.m)
    return field.element(data.draw(coords.filter(any)))


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


def test_switch_hypothesis_failures():
    deriv = Derivation(AZ, 1)
    bad = SwitchConfig(F27, F27.one(), F27.one(), 1)  # pi^p - pi = 0 != 1
    with pytest.raises(ValueError):
        switch_grading(AZ, PRE_AZ, deriv, bad)
    with pytest.raises(ValueError):
        switch_grading(AZ, BIG, deriv, big_config())


def planted_switch(rows):
    """switch_grading on AZ over F_27 with rows of the derivation table replaced."""
    deriv = Derivation(AZ, 1)
    index = AZ.basis.index
    for m, image in rows.items():
        deriv.table[index(m)] = {index(k): c for k, c in image.items()}
    switch_grading(AZ, PRE_AZ, deriv, big_config())


def test_switch_hypothesis_failures_name_the_monomial():
    m00, m60, m52, m22, m82 = (Monomial(0, 0), Monomial(6, 0), Monomial(5, 2),
                               Monomial(2, 2), Monomial(8, 2))
    # D moves every monomial by degree 6; the identity row moves x^(4)y^(1) by 0
    with pytest.raises(ValueError, match=r"not graded of one degree: it moves "
                       r"Monomial\(i=4, j=1\) by 0, earlier monomials by 6"):
        planted_switch({Monomial(4, 1): {Monomial(4, 1): 1}})
    # x^(6) and x^(5)y^(2) share a degree; with the wrap of the x^(5)y^(2)
    # cycle set to 1, D^p is 1 + N on (1, x^(8)y^(2)) and D^(p^2) = 1
    with pytest.raises(ValueError, match=r"D\^\(p\^2\) != lam\^\(\(p-1\)p\) D\^p "
                       r"on Monomial\(i=0, j=0\)"):
        planted_switch({m00: {m60: 1, m52: 1}, m22: {m82: 1}})
    # with the wrap at -1, D^p is diagonalizable but not diagonal
    with pytest.raises(ValueError, match=r"D\^p is not diagonal on the monomial basis: "
                       r"D\^p Monomial\(i=0, j=0\) has support "
                       r"\[Monomial\(i=0, j=0\), Monomial\(i=8, j=2\)\]"):
        planted_switch({m00: {m60: 1, m52: 1}})


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


# (p, n, s) with p^(s+1+n) <= 125 monomials
SMALL_SHAPES = [(3, n, s) for s in range(3) for n in range(1, 4 - s)] + [
    (5, 1, 0), (5, 2, 0), (5, 1, 1)]


@settings(max_examples=8, deadline=None)
@given(st.sampled_from(SMALL_SHAPES), st.booleans(), st.data())
def test_raw_grading_follows_from_closed(shape, big, data):
    """closed = raw x scalar on every label of admissible switches (big
    field: pi = t + c; prime field: pi in 1..p-1), and the graded_raw that
    switch_checks derives from the closed sweep equals a direct raw sweep,
    also after swapping two labels in both bases."""
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
    if data.draw(st.booleans()):
        l1, l2 = data.draw(st.lists(st.sampled_from(active), min_size=2, max_size=2,
                                    unique=True))
        swap_labels(raw, closed, l1, l2)
    graded_raw, graded_closed, link, _tables = switch_checks(desc, raw, closed, cfg)
    assert link == [] and bool(graded_closed) == bool(graded_raw)
    assert graded_raw == check_graded(desc, raw)[0]


def stray_digest(strays) -> str:
    return hashlib.sha256("\n".join(f"{a.text()} {b.text()} {w.text()}"
                                     for a, b, w in strays).encode()).hexdigest()


def test_passing_sweep_reduces_nothing(monkeypatch):
    """On a passing switch every bracket equals its predicted c v_L with L of
    the degree sum, so the sweep itself calls SparseEchelon.reduce never."""
    desc, raw, closed, cfg = switched(GradingCase.BIG_FIELD, 3, 1, 1, 0)
    calls, reduce = [], SparseEchelon.reduce

    def counted(self, v):
        if sys._getframe(1).f_code is check_graded.__code__:
            calls.append(1)
        return reduce(self, v)
    monkeypatch.setattr(SparseEchelon, "reduce", counted)
    assert switch_checks(desc, raw, closed, cfg) == ([], [], [], [])
    assert calls == []
    # the raw basis has no predictions, so its own sweep reduces every
    # nonzero bracket
    assert check_graded(desc, raw) == ([], [])
    assert calls


def test_switch_checks_planted_swap_and_broken_link():
    desc, raw, closed, cfg = switched(GradingCase.BIG_FIELD, 3, 1, 1, 0)
    calls = counting_brackets(desc)
    assert switch_checks(desc, raw, closed, cfg) == ([], [], [], [])
    assert len(calls) == 27 * 28 // 2
    # a swap keeps the link: the raw strays still come from the one sweep
    l1, l2 = Label(-1, 0, 0), Label(0, -1, 0)
    swap_labels(raw, closed, l1, l2)
    calls.clear()
    graded_raw, graded_closed, link, tables = switch_checks(desc, raw, closed, cfg)
    assert len(calls) == 27 * 28 // 2
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
    graded_raw, graded_closed, link, _tables = switch_checks(desc, raw, closed, cfg)
    assert len(calls) == 2 * (27 * 28 // 2)
    assert link == [Label(0, 0, 1)]
    assert graded_raw == check_graded(desc, raw)[0]
    # a table that is not anticommutative is bracketed in both orders
    desc, raw, closed, cfg = switched(GradingCase.BIG_FIELD, 3, 1, 1, 0)
    break_anticommutativity(desc, 0)
    calls = counting_brackets(desc)
    switch_checks(desc, raw, closed, cfg)
    assert len(calls) == 27 ** 2


def break_anticommutativity(desc, which: int):
    """Double the constant of one table entry [b_i, b_j], i < j, picked by
    `which`, so that [b_i, b_j] != -[b_j, b_i]."""
    p = desc.heights.p
    entries = [(i, j) for i, row in enumerate(desc.table) for j in row if j > i]
    i, j = entries[which % len(entries)]
    c, k = desc.table[i][j]
    desc.table[i][j] = (2 * c % p, k)
    assert anticommutativity_violations(desc) == [(desc.basis[i], desc.basis[j])]


def perturbed_rule(pair):
    """`_product_rule` with the coefficient of one ordered pair shifted by 1,
    so that its reversed order fails the (-c, L) test."""
    product_rule = grading._product_rule

    def build(basis, cfg):
        rule, p = product_rule(basis, cfg), basis.field.p

        def shifted(la, lb):
            c, lab = rule(la, lb)
            if (la, lb) == pair:
                c = ((c[0] + 1) % p,) + c[1:]
            return c, lab
        return shifted
    return build


CORRUPTIONS = ["none", "swap", "degree", "scale", "table", "rule"]


# the ordered sweep brackets dim^2 pairs, so the oracle test stops at 81
ORACLE_SHAPES = [(p, n, s) for p, n, s in SMALL_SHAPES if p ** (s + 1 + n) <= 81]


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(ORACLE_SHAPES), st.booleans(), st.sampled_from(CORRUPTIONS),
       st.data())
def test_check_graded_matches_ordered_sweep(shape, big, corruption, data):
    """check_graded over unordered pairs returns the strays and misses of
    the sweep over ordered pairs, in the same order, with and without the
    product rules: on admissible switches, after swapping two labels,
    putting one label in a wrong degree, scaling one vector by 2, breaking
    anticommutativity at one table entry (both orders bracketed) or
    shifting the rule's coefficient on one ordered pair (the (-c, L) test
    fails and the reversed order is compared in full)."""
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
    if corruption == "swap":
        swap_labels(raw, closed, l1, l2)
    elif corruption == "degree":
        closed.degrees[l1] = (closed.degrees[l1] + 1) % closed.spec.N
    elif corruption == "scale":
        closed.vectors[l1] = closed.vectors[l1].scale(2)
    elif corruption == "table":
        break_anticommutativity(desc, data.draw(st.integers(0, 10 ** 6)))
    with pytest.MonkeyPatch.context() as mp:
        if corruption == "rule":
            mp.setattr(grading, "_product_rule", perturbed_rule((l1, l2)))
        strays, misses = check_graded(desc, closed, cfg)
        assert (strays, misses) == ordered_check_graded(desc, closed, cfg)
        assert check_graded(desc, raw) == ordered_check_graded(desc, raw)
    if corruption == "rule":
        assert (l1, l2) in misses
