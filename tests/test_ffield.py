"""Field arithmetic, binomial helpers and the irreducibility test."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import falling_binomial
from thinlie import ffield
from thinlie.ffield import (
    FieldParams,
    falling_factorial,
    is_irreducible,
    is_prime,
    lucas_binomial,
    plane_kernel,
    square_root,
)

F3 = FieldParams.prime(3)
F5 = FieldParams.prime(5)
# F_27 presented with t^3 = t + 1
F27 = FieldParams(3, 3, (2, 2, 0, 1))
# t^3 + t + 1 has no root in F_5
F125 = FieldParams(5, 3, (1, 1, 0, 1))
# t^p - t - 1, the big fields of the paper's p = 5 and p = 7 runs
F3125 = FieldParams(5, 5, (4, 4, 0, 0, 0, 1))
F7_7 = FieldParams(7, 7, (6, 6, 0, 0, 0, 0, 0, 1))
# t^2 = -1, and t^2 = 2t + 1 (a reduction of t^m with several terms)
F9 = FieldParams.parse_spec("3^2:1,0,1")
F9B = FieldParams.parse_spec("3^2:2,1,1")
# t^2 = -2, a nonsquare mod 5
F25 = FieldParams.parse_spec("5^2:2,0,1")


def test_is_prime():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_lucas_matches_factorial_oracle():
    for p in (3, 5):
        for n in range(40):
            for k in range(n + 1):
                assert lucas_binomial(n, k, p) == math.comb(n, k) % p


def test_lucas_out_of_range_is_zero():
    assert lucas_binomial(2, 5, 3) == 0
    assert lucas_binomial(9, 3, 3) == 0  # base-3 carry


def mobius(n: int) -> int:
    out = 1
    d = 2
    while n > 1:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return out


def test_irreducible_count_matches_gauss():
    """is_irreducible accepts exactly (1/m) sum_{d | m} mu(d) p^(m/d) of
    the p^m monic polynomials of degree m."""
    for p, m in ((3, 2), (3, 3), (3, 4), (5, 2), (5, 3)):
        accepted = sum(is_irreducible(p, list(tail) + [1])
                       for tail in itertools.product(range(p), repeat=m))
        gauss = sum(mobius(d) * p ** (m // d) for d in range(1, m + 1) if m % d == 0)
        assert accepted * m == gauss, (p, m)


def test_irreducibility_screen():
    # t^2 + 1 factors over F_5 as (t+2)(t+3) but not over F_3
    assert is_irreducible(3, [1, 0, 1])
    assert not is_irreducible(5, [1, 0, 1])


def test_params_validation():
    with pytest.raises(ValueError):
        FieldParams(4, 1, (0, 1))
    with pytest.raises(ValueError):
        FieldParams(3, 2, (0, 0, 1))  # t^2 is reducible
    with pytest.raises(ValueError):
        FieldParams(3, 2, (1, 0, 2))  # not monic


def test_spec_string_round_trip():
    assert F27.spec_string == "3^3:2,2,0,1"
    assert FieldParams.parse_spec("3^3:2,2,0,1") == F27
    assert FieldParams.parse_spec(" 5^1:0,1 ") == F5
    with pytest.raises(ValueError):
        FieldParams.parse_spec("3^3:2,2,0")
    assert FieldParams.parse_spec("3^1:" + "0" * 4300 + ",1") == FieldParams(3, 1, (0, 1))
    with pytest.raises(ValueError, match="at most 4300 digits"):
        FieldParams.parse_spec("3^1:" + "0" * 4301 + ",1")


def test_generator_relations():
    t = F27.gen()
    assert t ** 3 == t + 1
    assert t * t ** 2 == t + 1
    assert (t + 1) * t ** 2 == F27.parse_element("t^2+t+1")
    assert t ** 13 == F27.one()
    assert t.inverse() == F27.parse_element("t^2+2")
    assert t * t.inverse() == F27.one()


def test_prime_field_has_no_generator():
    with pytest.raises(ValueError):
        F3.gen()


def test_element_text_format():
    assert str(F27.element([1, 1, 0])) == "t+1"
    assert str(F27.element([2, 0, 2])) == "2t^2+2"
    assert str(F27.zero()) == "0"
    assert str(F5.element(4)) == "4"
    for x in F27.elements():
        assert F27.parse_element(str(x)) == x


def test_int_coercion_and_pow():
    t = F27.gen()
    assert 1 - t == -(t - 1)
    assert t * 3 == F27.zero()
    assert (t + 2) ** 0 == F27.one()
    assert t ** -1 == t.inverse()


def test_order_and_fermat():
    assert F27.order == 27
    for x in F27.elements():
        if not x.is_zero():
            assert x ** 26 == F27.one()


def test_inverse_small_fields_exhaustive():
    for field in (F3, F5, F27, F125):
        for x in field.elements():
            if x.is_zero():
                with pytest.raises(ZeroDivisionError):
                    x.inverse()
            else:
                assert x * x.inverse() == field.one(), (field, x)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([F3125, F7_7]), st.data())
def test_inverse_big_fields(field, data):
    coeffs = data.draw(st.lists(st.integers(0, field.p - 1),
                                min_size=field.m, max_size=field.m))
    x = field.element(coeffs)
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    else:
        assert x * x.inverse() == field.one()


def test_in_prime_field_and_as_int():
    t = F27.gen()
    assert F27.element(2).in_prime_field()
    assert F27.element(2).as_int() == 2
    assert not t.in_prime_field()
    with pytest.raises(ValueError):
        t.as_int()


def test_elements_enumeration():
    xs = list(F27.elements())
    assert len(xs) == 27
    assert len(set(xs)) == 27
    assert xs[0] == F27.zero()


def test_falling_binomial():
    t = F27.gen()
    # C(t, 2) = t(t-1)/2
    assert falling_binomial(t, 2) == F27.parse_element("2t^2+t")
    assert falling_binomial(F5.element(2), 2) == F5.one()
    assert falling_binomial(F5.element(2), 3) == F5.zero()
    # integer alpha reduces to the Lucas value
    for a in range(5):
        for i in range(5):
            assert falling_binomial(F5.element(a), i) == F5.element(lucas_binomial(a, i, 5))
    with pytest.raises(ValueError):
        falling_binomial(t, 3)
    # (x)_i = C(x, i) i!, defined for every i: (t)_3 = t^3 - t = 1 in F_27
    assert falling_factorial(t, 2) == F27.parse_element("t^2+2t")
    assert falling_factorial(t, 3) == F27.one()
    assert falling_factorial(t, 0) == F27.one()
    for a in range(5):
        for i in range(5):
            assert falling_factorial(F5.element(a), i) == (
                falling_binomial(F5.element(a), i) * math.factorial(i))


def test_kernel_frozen():
    zero, one = F5.zero(), F5.one()
    assert plane_kernel(F5, []) == [[one, zero], [zero, one]]
    assert plane_kernel(F5, [(zero, zero), (zero, zero)]) == [[one, zero], [zero, one]]
    assert plane_kernel(F5, [(one, zero), (zero, one)]) == []
    # rows (1, 2) and (2, 4) span one line: the kernel is <(-2, 1)>
    rows = [(F5.element(1), F5.element(2)), (F5.element(2), F5.element(4))]
    assert plane_kernel(F5, rows) == [[F5.element(3), one]]
    assert plane_kernel(F5, [(zero, F5.element(2))]) == [[one, zero]]


def field_elements(field):
    return st.lists(st.integers(0, field.p - 1), min_size=field.m,
                    max_size=field.m).map(field.element)


@st.composite
def kernel_blocks(draw):
    """k x 2 blocks over F_3, F_5 or F_27: all zero, rank at most 1 (every
    row a multiple of one row, which may have a zero column), or random."""
    field = draw(st.sampled_from([F3, F5, F27]))
    k = draw(st.integers(0, 4))
    kind = draw(st.sampled_from(["zero", "rank1", "random"]))
    elems = field_elements(field)
    if kind == "zero":
        return field, [(field.zero(), field.zero())] * k
    if kind == "rank1":
        x, y = draw(elems), draw(elems)
        scales = draw(st.lists(elems, min_size=k, max_size=k))
        return field, [(c * x, c * y) for c in scales]
    return field, draw(st.lists(st.tuples(elems, elems), min_size=k, max_size=k))


@settings(max_examples=300, deadline=None)
@given(kernel_blocks())
def test_plane_kernel_matches_brute_force(block):
    field, rows = block
    kernel = [[a, b] for a in field.elements() for b in field.elements()
              if all((a * x + b * y).is_zero() for x, y in rows)]
    one, zero = field.one(), field.zero()
    if len(kernel) == field.order ** 2:
        expected = [[one, zero], [zero, one]]
    elif len(kernel) == 1:
        expected = []
    else:
        # the line's vector with a 1 at the free coordinate: b = 1, else a = 1
        assert len(kernel) == field.order
        expected = ([v for v in kernel if v[1] == one]
                    or [v for v in kernel if v[0] == one])
    assert plane_kernel(field, rows) == expected


@pytest.mark.parametrize("field", [F3, F5, F9, F25, F27])
def test_square_root_matches_brute_force_squares(field):
    """None exactly on nonsquares, else a root.  F_9 and F_25 have
    q = 1 mod 8, so their roots run the Tonelli-Shanks loop."""
    squares = {y * y for y in field.elements()}
    for x in field.elements():
        r = square_root(x)
        if x in squares:
            assert r is not None and r * r == x, x
        else:
            assert r is None, x


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([F3125, F7_7]), st.data())
def test_square_root_on_big_fields(field, data):
    """m is odd, so a nonsquare of F_p stays one in F_{p^m}: x = y^2 is a
    square and n*y^2, n a nonsquare mod p, is not."""
    y = data.draw(field_elements(field))
    nonsquare = field.element(2 if field.p == 5 else 3)
    r = square_root(y * y)
    assert r is not None and r * r == y * y
    assert y.is_zero() or square_root(nonsquare * y * y) is None


@st.composite
def random_fields(draw):
    """F_p[t]/(f) for p in {3, 5, 7}, m <= 4 and a random monic irreducible f."""
    p = draw(st.sampled_from([3, 5, 7]))
    m = draw(st.integers(1, 4))
    tail = draw(st.lists(st.integers(0, p - 1), min_size=m, max_size=m)
                .filter(lambda tail: is_irreducible(p, tail + [1])))
    return FieldParams(p, m, tuple(tail) + (1,))


@settings(max_examples=200, deadline=None)
@given(random_fields(), st.data())
def test_field_axioms_under_random_moduli(field, data):
    x, y, z = (data.draw(field_elements(field)) for _ in range(3))
    zero, one = field.zero(), field.one()
    assert (x + y) + z == x + (y + z) and (x * y) * z == x * (y * z)
    assert x + y == y + x and x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x + zero == x and x * one == x and x - x == zero and x + (-x) == zero
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    else:
        assert x * x.inverse() == one


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([F27, F3125, F9, F9B]), st.data())
def test_element_text_round_trip(field, data):
    x = data.draw(field_elements(field))
    assert field.parse_element(str(x)) == x
    assert str(field.parse_element(str(x))) == str(x)


def fresh(field: FieldParams) -> FieldParams:
    """An instance equal to field whose caches start empty."""
    return FieldParams(field.p, field.m, field.modulus)


def test_inverse_computed_once_per_field(monkeypatch):
    """Over an extension field each element's inverse is computed once per
    FieldParams instance, however often and however it is asked for
    (inverse, division, a negative power); over F_p nothing is cached."""
    calls = []
    uncached = ffield._inverse_coeffs

    def counted(params, coeffs):
        calls.append(coeffs)
        return uncached(params, coeffs)
    monkeypatch.setattr(ffield, "_inverse_coeffs", counted)
    field = fresh(F27)
    units = [x for x in field.elements() if not x.is_zero()]
    for _ in range(3):
        for x in units:
            assert x * x.inverse() == field.one()
            assert field.one() / x == x ** -1 == x.inverse()
    assert sorted(calls) == sorted(x.coeffs for x in units)
    again = fresh(F27)
    assert again.gen().inverse() == F27.gen().inverse()
    assert calls[len(units):] == [(0, 1, 0)]
    prime = fresh(F5)
    assert [prime.element(c).inverse().as_int() for c in range(1, 5)] == [1, 3, 2, 4]
    assert len(calls) == len(units) + 1 and prime.inverses == {}


def cache_cases(field: FieldParams, elements) -> None:
    """Cached text and parse equal the uncached `_format_element` and
    `_parse_element` on each element, asked twice, and on variants of its
    text that parse to the same element (spaces, reordered terms, a zero
    term)."""
    for x in elements:
        text = ffield._format_element(x)
        assert [str(x), field.element_text(x.coeffs)] == [text, text]
        variants = [text, text.replace("+", " + "), "+".join(reversed(text.split("+"))),
                    "0+" + text]
        for s in variants:
            want = ffield._parse_element(field, s)
            assert field.parse_element(s) == field.parse_element(s) == want == x, s
    assert field.texts and field.parsed


def test_cached_text_and_parse_match_uncached_on_f27():
    cache_cases(fresh(F27), F27.elements())


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([F3125, F7_7]), st.data())
def test_cached_text_and_parse_match_uncached_on_big_fields(field, data):
    """As on F_27, on a sample of F_3125 and F_{7^7}, whose coefficients
    print as sums of several powers of t."""
    cache_cases(fresh(field), data.draw(st.lists(field_elements(field), min_size=1,
                                                 max_size=8)))


def test_malformed_text_raises_and_is_not_cached():
    """Text that does not parse raises the ValueError of `_parse_element`,
    each time it is asked, and leaves no entry in the parse cache."""
    field = fresh(F27)
    for bad in ["", " ", "t^3", "x", "2t^", "+", "t+", "1/t", "t**2"]:
        with pytest.raises(ValueError) as want:
            ffield._parse_element(field, bad)
        for _ in range(2):
            with pytest.raises(ValueError) as got:
                field.parse_element(bad)
            assert str(got.value) == str(want.value), bad
    assert field.parsed == {}
