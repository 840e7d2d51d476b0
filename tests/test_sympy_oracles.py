"""Oracles from sympy, an implementation of the same mathematics by other
authors: an oracle written next to the code it checks can repeat its
mistakes.  sympy is a test dependency (the `test` extra of pyproject.toml),
imported unconditionally, so a missing sympy is a collection error, never
a skip."""

import itertools
import random

import sympy
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_gcdex, gf_irreducible_p, gf_mul, gf_rem, gf_strip

from thinlie import switch
from thinlie.ffield import FieldElement, FieldParams, is_irreducible, lucas_binomial


def test_laguerre_coefficients_match_sympy():
    """`switch._laguerre_coefficients(alpha, lam)` are the coefficients of
    x^k in the generalized Laguerre polynomial L_(p-1)^(a)(x) at a = alpha,
    times lam^k: sympy's `assoc_laguerre(p - 1, a, x)` with a symbolic,
    whose coefficients are polynomials in a with denominators dividing
    (p - 1)!, so they reduce mod p.  Every alpha in F_p and lam in F_p^*,
    p = 3 to 13: 334 coefficient lists."""
    a, x = sympy.symbols("a x")
    checked = 0
    for p in (3, 5, 7, 11, 13):
        field = FieldParams.prime(p)
        poly = sympy.Poly(sympy.assoc_laguerre(p - 1, a, x), x)
        # the coefficient of x^k as a polynomial in a, its rational coefficients mod p
        by_power = [[c.p * pow(c.q, -1, p) % p
                     for c in sympy.Poly(poly.coeff_monomial(x ** k), a).all_coeffs()]
                    for k in range(p)]
        for alpha in range(p):
            residues = []
            for coeffs in by_power:  # Horner's rule mod p at a = alpha
                r = 0
                for c in coeffs:
                    r = (r * alpha + c) % p
                residues.append(r)
            for lam in range(1, p):
                want = [field.element(r * lam ** k % p) for k, r in enumerate(residues)]
                got = switch._laguerre_coefficients(field.element(alpha), field.element(lam))
                assert got == want, (p, alpha, lam)
                checked += 1
    assert checked == 334


def test_lucas_binomial_matches_sympy():
    """`lucas_binomial(n, k, p)` is sympy's `binomial(n, k)` mod p, also for
    a negative upper index, where both read C(n, k) as
    (-1)^k C(k - n - 1, k): n from -10 to 49, k from 0 to 49, p = 3, 5, 7."""
    checked = 0
    for p in (3, 5, 7):
        for n in range(-10, 50):
            for k in range(50):
                assert lucas_binomial(n, k, p) == sympy.binomial(n, k) % p, (n, k, p)
                checked += 1
    assert checked == 3 * 60 * 50


def monic(p: int, m: int):
    """Every monic polynomial of degree m over F_p, low-to-high."""
    for low in itertools.product(range(p), repeat=m):
        yield (*low, 1)


def galois(coeffs) -> list:
    """A low-to-high coefficient sequence as a galoistools polynomial:
    high-to-low, without leading zeros."""
    return gf_strip(list(reversed(coeffs)))


def test_is_irreducible_matches_sympy():
    """`is_irreducible` agrees with galoistools' `gf_irreducible_p` on every
    monic polynomial of degree 1 to 4 over F_3, F_5 and F_7."""
    for p in (3, 5, 7):
        for m in range(1, 5):
            for f in monic(p, m):
                assert is_irreducible(p, f) == gf_irreducible_p(galois(f), p, ZZ), (p, f)


def from_galois(field: FieldParams, poly: list) -> FieldElement:
    """The field element of a galoistools polynomial reduced mod the modulus."""
    coeffs = [int(c) for c in reversed(poly)]
    return FieldElement(field, tuple(coeffs + [0] * (field.m - len(coeffs))))


def test_extension_field_arithmetic_matches_sympy():
    """Products and inverses in F_(p^m) = F_p[t]/(f) agree with galoistools:
    a product is `gf_rem(gf_mul(a, b), f)`, and an inverse is the Bezout
    cofactor s of `gf_gcdex(a, f)` = (s, _, 1).  For p = 3, 5, 7 and
    m = 2, 3, 4, under the first two monic irreducible moduli of degree m
    and under t^3 - t - 1 over F_3: every nonzero inverse, and every product
    in fields of at most 81 elements, else 400 products of seeded random
    pairs."""
    rng = random.Random(0)
    moduli = [(3, (2, 2, 0, 1))]
    for p in (3, 5, 7):
        for m in (2, 3, 4):
            irreducible = (f for f in monic(p, m) if gf_irreducible_p(galois(f), p, ZZ))
            moduli += [(p, f) for f in itertools.islice(irreducible, 2)]
    for p, f in moduli:
        field = FieldParams(p, len(f) - 1, f)
        modulus = galois(f)
        elements = [FieldElement(field, c) for c in itertools.product(range(p), repeat=field.m)]
        pairs = (itertools.product(elements, repeat=2) if len(elements) <= 81
                 else ((rng.choice(elements), rng.choice(elements)) for _ in range(400)))
        for a, b in pairs:
            want = gf_rem(gf_mul(galois(a.coeffs), galois(b.coeffs), p, ZZ), modulus, p, ZZ)
            assert a * b == from_galois(field, want), (f, a, b)
        for a in elements[1:]:
            s, _, h = gf_gcdex(galois(a.coeffs), modulus, p, ZZ)
            assert h == [1], (f, a)
            assert a.inverse() == from_galois(field, s), (f, a)
