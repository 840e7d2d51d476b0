"""Oracles from sympy, an implementation of the same mathematics by other
authors: an oracle written next to the code it checks can repeat its
mistakes.  sympy is a test dependency (the `test` extra of pyproject.toml),
imported unconditionally, so a missing sympy is a collection error, never
a skip."""

import sympy

from thinlie import grading
from thinlie.ffield import FieldParams


def test_laguerre_coefficients_match_sympy():
    """`grading._laguerre_coefficients(alpha, lam)` are the coefficients of
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
                got = grading._laguerre_coefficients(field.element(alpha), field.element(lam))
                assert got == want, (p, alpha, lam)
                checked += 1
    assert checked == 334
