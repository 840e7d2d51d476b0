"""Divided power algebra: sparse elements, generalized powers, echelon spans,
and the reference product of `oracles`."""

import os
import re
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import thinlie

from oracles import mono_mul, product
from thinlie.dpalgebra import (
    AlgebraElement,
    Heights,
    Monomial,
    SparseEchelon,
    fold,
    generalized_power,
    parse_element,
)
from thinlie.ffield import FieldParams

F3 = FieldParams.prime(3)
F27 = FieldParams(3, 3, (2, 2, 0, 1))
F3125 = FieldParams(5, 5, (4, 4, 0, 0, 0, 1))
# t^2 = -1, and t^2 = 2t + 1 (a reduction of t^m with several terms)
F9 = FieldParams.parse_spec("3^2:1,0,1")
F9B = FieldParams.parse_spec("3^2:2,1,1")
H11 = Heights(3, 1, 1)
H21 = Heights(3, 2, 1)


def elem(field, heights, *terms):
    return AlgebraElement(field, heights, list(terms))


def test_heights_basics():
    assert (H11.xbound, H11.ybound, H11.q) == (3, 3, 3)
    assert H11.unit == Monomial(0, 0)
    assert H11.top == Monomial(2, 2)
    assert len(list(H11.monomials())) == 9
    assert H21.xbound == 9 and H21.q == 3
    with pytest.raises(ValueError):
        Heights(4, 1, 1)
    with pytest.raises(ValueError):
        Heights(3, 0, 1)


def test_mono_mul_frozen():
    assert mono_mul(H11, Monomial(1, 0), Monomial(1, 0)) == (2, Monomial(2, 0))
    assert mono_mul(H11, Monomial(0, 1), Monomial(1, 1)) == (2, Monomial(1, 2))
    # binomial vanishes mod 3 without overflow
    assert mono_mul(H21, Monomial(1, 0), Monomial(2, 0)) is None
    # overflow past the heights
    assert mono_mul(H11, Monomial(2, 0), Monomial(2, 0)) is None


def test_mono_mul_commutes():
    for a in H11.monomials():
        for b in H11.monomials():
            assert mono_mul(H11, a, b) == mono_mul(H11, b, a)


def test_element_construction_merges_terms():
    v = elem(F3, H11, ((1, 0), 1), ((1, 0), 2))
    assert v.is_zero()
    v = elem(F3, H11, ((1, 0), 1), ((0, 1), 2), ((1, 0), 1))
    assert v.coeff((1, 0)) == F3.element(2)
    assert v.support() == [Monomial(0, 1), Monomial(1, 0)]


def test_out_of_bounds_rejected():
    with pytest.raises(ValueError):
        elem(F3, H11, ((3, 0), 1))


def test_add_sub_scale():
    x = elem(F3, H11, ((1, 0), 1))
    y = elem(F3, H11, ((0, 1), 1))
    assert (x + y) - y == x
    assert x + x + x == AlgebraElement.zero(F3, H11)
    assert x.scale(2) == x + x
    assert x.scale(0).is_zero()
    assert (-x) + x == AlgebraElement.zero(F3, H11)


def test_product_is_divided_power():
    x = elem(F3, H11, ((1, 0), 1))
    assert product(x, x) == AlgebraElement.from_monomial(F3, H11, (2, 0), 2)
    assert product(x, x).coeff((2, 0)) == F3.element(2)
    assert product(product(x, x), x).is_zero()
    one = elem(F3, H11, ((0, 0), 1))
    for m in H11.monomials():
        v = AlgebraElement.from_monomial(F3, H11, m)
        assert product(one, v) == v


def test_product_associative_small():
    monos = list(H11.monomials())
    vs = [AlgebraElement.from_monomial(F3, H11, m) for m in monos]
    for u in vs[:5]:
        for v in vs[:5]:
            for w in vs[:5]:
                assert product(product(u, v), w) == product(u, product(v, w))


def test_fold_reduces_by_the_modulus():
    # 2 t^e + t for m <= e <= 2m - 2, against the field's own powers of t;
    # deterministic, where a wrong fold can make echelon reduction loop
    x = Monomial(1, 0)
    for field in (F9, F9B, F27, F3125):
        t = field.gen()
        for e in range(field.m, 2 * field.m - 1):
            want = (t ** e + t ** e + t).coeffs
            got = fold({(x, e): 2, (x, 1): 1}, field)
            assert got == {(x, r): c for r, c in enumerate(want) if c}


def test_text_and_parse_round_trip():
    v = elem(F27, H21, ((3, 0), F27.gen()), ((0, 0), 1))
    assert v.text() == "(1)*x^(0)y^(0) + (t)*x^(3)y^(0)"
    assert parse_element(F27, H21, v.text()) == v
    assert parse_element(F3, H11, "0").is_zero()
    with pytest.raises(ValueError):
        parse_element(F3, H11, "x^(1)y^(0)")


def test_generalized_power_frozen():
    gp = generalized_power(F3, H11, F3.one(), F3.element(2), 0)
    assert gp.text() == "(1)*x^(0)y^(0) + (2)*x^(1)y^(0) + (2)*x^(2)y^(0)"
    t = F27.gen()
    at = generalized_power(F27, H21, F27.one(), t, 1)
    # C(t,2)*2! = t^2 + 2t
    assert at.text() == "(1)*x^(0)y^(0) + (t)*x^(3)y^(0) + (t^2+2t)*x^(6)y^(0)"


def test_generalized_power_group_law():
    t = F27.gen()
    sigma = t + 1
    for alpha in (F27.zero(), F27.one(), t, t ** 2 + 2):
        for beta in (F27.one(), t):
            lhs = product(generalized_power(F27, H21, sigma, alpha, 1),
                          generalized_power(F27, H21, sigma, beta, 1))
            assert lhs == generalized_power(F27, H21, sigma, alpha + beta, 1)


def test_generalized_power_step_bound():
    with pytest.raises(ValueError):
        generalized_power(F3, H11, F3.one(), F3.one(), 1)
    with pytest.raises(ValueError):
        generalized_power(F3, H11, F3.one(), F3.one(), -1)


def test_echelon_rank_and_containment():
    ech = SparseEchelon(F3, H11)
    x = elem(F3, H11, ((1, 0), 1))
    y = elem(F3, H11, ((0, 1), 1))
    assert ech.insert(x + y)
    assert ech.insert(x)
    assert not ech.insert(y)  # already in the span
    assert ech.rank == 2
    assert ech.contains(x.scale(2) + y)
    assert not ech.contains(elem(F3, H11, ((1, 1), 1)))


def test_echelon_subspace_equality():
    x = elem(F3, H11, ((1, 0), 1))
    y = elem(F3, H11, ((0, 1), 1))
    e1 = SparseEchelon(F3, H11)
    e2 = SparseEchelon(F3, H11)
    e1.insert(x + y)
    e1.insert(x - y)
    e2.insert(x)
    e2.insert(y)
    assert e1 == e2
    e2.insert(elem(F3, H11, ((1, 1), 1)))
    assert e1 != e2
    # insert reduces only the leading term of a new row: x + y keeps its x
    e3 = SparseEchelon(F3, H11)
    e4 = SparseEchelon(F3, H11)
    e3.insert(x)
    e3.insert(x + y)
    e4.insert(y)
    e4.insert(x)
    assert e3.rows != e4.rows
    assert e3 == e4


def test_echelon_basis_is_reduced():
    ech = SparseEchelon(F3, H11)
    v = elem(F3, H11, ((0, 1), 2), ((1, 0), 1))
    ech.insert(v)
    (row,) = ech.basis()
    lead = row.support()[0]
    assert row.coeff(lead) == F3.one()


H11_MONOS = list(H11.monomials())


def coefficients(field):
    return st.lists(st.integers(0, field.p - 1), min_size=field.m, max_size=field.m)


def elements_over(field):
    return st.lists(st.tuples(st.sampled_from(H11_MONOS), coefficients(field)),
                    max_size=4).map(lambda terms: AlgebraElement(field, H11, terms))


@st.composite
def echelon_draws(draw):
    """Up to five vectors over F_3 or F_27 (m > 1, as analyze reads
    coordinates over F_3125), a permutation of them, one extra vector and
    a coefficient per vector for a span element."""
    field = draw(st.sampled_from([F3, F27]))
    vs = draw(st.lists(elements_over(field), min_size=1, max_size=5))
    combo = draw(st.lists(coefficients(field), min_size=len(vs), max_size=len(vs)))
    return field, vs, draw(st.permutations(vs)), draw(elements_over(field)), combo


def assert_echelon_rule(ech, vs):
    """Insert vs one by one: no older row changes, every row has
    coefficient 1 at its key, the least monomial of its support; read at
    the keys the rows are unit upper-triangular, so `coordinates` is
    injective on the span."""
    for v in vs:
        before = dict(ech.rows)
        ech.insert(v)
        assert all(ech.rows[k] is row for k, row in before.items())
    one, zero = ech.field.one(), ech.field.zero()
    keys = sorted(ech.rows)
    for j, key in enumerate(keys):
        row = ech.rows[key]
        assert row.support()[0] == key
        assert row.coeff(key) == one
        assert ech.coordinates(row)[:j + 1] == (zero,) * j + (one,)


@settings(max_examples=200, deadline=None)
@given(echelon_draws())
def test_echelon_equality_is_span_equality(draws):
    field, vs, shuffled, extra, combo = draws
    e1 = SparseEchelon(field, H11)
    e2 = SparseEchelon(field, H11)
    assert_echelon_rule(e1, vs)
    assert_echelon_rule(e2, shuffled)
    assert e1 == e2
    grown = SparseEchelon(field, H11)
    assert_echelon_rule(grown, vs + [extra])
    assert (grown == e1) == e1.contains(extra)
    w = AlgebraElement.zero(field, H11)
    for v, c in zip(vs, combo):
        w = w + v.scale(field.element(c))
    assert e1.reduce(w).is_zero()
    if all(x.is_zero() for x in e1.coordinates(w)):
        assert w.is_zero()


def test_overflow_check_survives_optimize():
    """python -O drops asserts; the structure-constant table's overflow
    check must still raise.  With the binomials replaced by k + 1 mod p,
    brackets past the heights get nonzero constants."""
    script = textwrap.dedent("""
        from thinlie import liealg
        from thinlie.dpalgebra import Heights
        from thinlie.ffield import FieldParams
        liealg.lucas_binomial = lambda n, k, p: (k + 1) % p
        print("debug", __debug__)
        desc = liealg.AlgebraDescriptor(liealg.Family.ALBERT_ZASSENHAUS,
                                        FieldParams.prime(3), Heights(3, 1, 1))
        try:
            desc.table
        except ArithmeticError as e:
            print("raised", e)
    """)
    src = os.path.dirname(os.path.dirname(thinlie.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0] == "debug False"
    assert lines[1].startswith("raised overflowing bracket")


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([F3, F27, F3125, F9, F9B]), st.data())
def test_element_text_round_trip(field, data):
    """text() and parse_element invert each other over prime and extension
    fields, including moduli whose reduction of t^m has several terms."""
    heights = Heights(field.p, 2, 1)
    coeff = st.lists(st.integers(0, field.p - 1), min_size=field.m, max_size=field.m)
    terms = data.draw(st.lists(st.tuples(st.sampled_from(list(heights.monomials())), coeff),
                               max_size=6))
    v = AlgebraElement(field, heights, terms)
    back = parse_element(field, heights, v.text())
    assert back == v
    assert back.text() == v.text()
    assert parse_element(field, heights, "0") == AlgebraElement.zero(field, heights)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([F3, F27, F3125, F9B]), st.data())
def test_parse_element_sums_terms_as_the_constructor_does(field, data):
    """parse_element reads any sum of terms, canonical or not (repeated
    monomials, zero coefficients, any order), as the element that
    `AlgebraElement` builds from the parsed (monomial, coefficient) pairs.
    A monomial outside the heights raises the constructor's error, and a
    term that does not parse raises before it, naming the term."""
    heights = Heights(field.p, 1, 1)
    mono = st.tuples(st.integers(0, field.p), st.integers(0, field.p))  # p is out of bounds
    coeff = st.lists(st.integers(0, field.p - 1), min_size=field.m,
                     max_size=field.m).map(field.element)
    terms = data.draw(st.lists(st.tuples(mono, coeff), min_size=1, max_size=6))
    text = " + ".join(f"({c})*x^({i})y^({j})" for (i, j), c in terms)
    try:
        want = AlgebraElement(field, heights, terms)
    except ValueError as e:
        with pytest.raises(ValueError, match=re.escape(str(e))):
            parse_element(field, heights, text)
    else:
        got = parse_element(field, heights, text)
        assert (got, got.terms) == (want, want.terms)
    with pytest.raises(ValueError, match=re.escape("bad element term '(1)*x^(1)'")):
        parse_element(field, heights, f"{text} + (1)*x^(1)")
