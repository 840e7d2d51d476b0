"""Exact arithmetic in F_p and F_{p^m} for small odd primes p.

Extension fields are polynomial quotient rings F_p[t]/(f) with an explicitly
stored monic irreducible modulus f, so every element has one canonical
coefficient vector and equality is literal.  Everything here is exact integer
arithmetic; no floats, no probabilistic shortcuts.  The module also carries
the binomial machinery used throughout (Lucas digit binomials, falling
factorials of field elements, in which the switch's coefficients are
written by Wilson's theorem), the irreducibility test every modulus
passes, square roots, and the kernel of a two-column linear system.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from typing import NamedTuple


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def lucas_binomial(n: int, k: int, p: int) -> int:
    """Binomial coefficient C(n, k) mod p.

    C(n, k) = 0 for k < 0, and for 0 <= n < k.  A negative upper index is
    resolved through C(n, k) = (-1)^k C(k - n - 1, k) before the digit-wise
    product over base-p digits is taken.  Not memoised: the structure-constant
    and product-rule tables read their binomials from per-axis tables, so a
    command asks for a few thousand (1 616 in `verify` at dimension 243,
    3 840 at 961, 1 940 in `switch` at 243).
    """
    if k < 0:
        return 0
    if n < 0:
        sign = -1 if k % 2 else 1
        return sign * lucas_binomial(k - n - 1, k, p) % p
    out = 1
    while k > 0:
        out = out * math.comb(n % p, k % p) % p
        if out == 0:
            return 0
        n //= p
        k //= p
    return out


# ---------------------------------------------------------------------------
# dense polynomial helpers over F_p, coefficient lists low-to-high

def _ptrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pdivmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    # quotient and remainder of a by the nonzero polynomial b
    a = list(a)
    inv = pow(b[-1], -1, p)
    quot = [0] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        lead = a[-1] * inv % p
        shift = len(a) - len(b)
        quot[shift] = lead
        for i, bi in enumerate(b):
            a[shift + i] = (a[shift + i] - lead * bi) % p
        a.pop()
        _ptrim(a)
    return _ptrim(quot), a


def _pgcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _ptrim(list(a)), _ptrim(list(b))
    while b:
        a, b = b, _pdivmod(a, b, p)[1]
    return a


def _ppowmod(base: list[int], e: int, f: list[int], p: int) -> list[int]:
    out = [1]
    base = _pdivmod(base, f, p)[1]
    while e:
        if e & 1:
            out = _pdivmod(_pmul(out, base, p), f, p)[1]
        base = _pdivmod(_pmul(base, base, p), f, p)[1]
        e >>= 1
    return out


def is_irreducible(p: int, coeffs) -> bool:
    """Irreducibility certificate for a monic polynomial over F_p.

    Checks t^(p^m) == t mod f together with gcd(t^(p^(m/l)) - t, f) = 1 for
    every prime divisor l of the degree m.
    """
    f = _ptrim(list(coeffs))
    m = len(f) - 1
    if m < 1 or f[-1] != 1:
        raise ValueError("modulus must be monic of degree >= 1")
    if m == 1:
        return True
    x = [0, 1]
    frob = {0: x}
    cur = x
    for d in range(1, m + 1):
        cur = _ppowmod(cur, p, f, p)
        frob[d] = cur
    if _ptrim([(a - b) % p for a, b in itertools.zip_longest(frob[m], x, fillvalue=0)]):
        return False
    for l in range(2, m + 1):
        if m % l == 0 and is_prime(l):
            diff = [(a - b) % p for a, b in itertools.zip_longest(frob[m // l], x, fillvalue=0)]
            g = _pgcd(f, _ptrim(diff), p)
            if len(g) - 1 > 0:
                return False
    return True


_SPEC_RE = re.compile(r"^(\d+)\^(\d+):([\d,]+)$")

#: Most digits of a number in a field spec: Python's default bound on
#: int-from-text conversion, checked before any int() meets it.
MAX_SPEC_DIGITS = 4300


class FieldParams(NamedTuple("FieldParams", [("p", int), ("m", int),
                                              ("modulus", tuple[int, ...])])):
    """Description of F_{p^m} as F_p[t]/(modulus), modulus monic, low-to-high.

    No __slots__: instances keep a __dict__ for the cached t_powers and
    three caches keyed by coefficient tuple or text, which hold values that
    depend on the field alone: the inverse of each tuple (extension fields
    only), the text of each tuple, and the tuple of each text.  A command
    meets few distinct coefficients many times, so each is computed once.
    """

    def __new__(cls, p: int, m: int, modulus: tuple[int, ...]):
        if not is_prime(p) or p < 3:
            raise ValueError(f"p must be an odd prime >= 3, got {p}")
        if m < 1:
            raise ValueError("extension degree must be >= 1")
        if len(modulus) != m + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree m")
        if any(not 0 <= c < p for c in modulus):
            raise ValueError("modulus coefficients must be reduced mod p")
        if not is_irreducible(p, list(modulus)):
            raise ValueError(f"modulus {modulus} is reducible over F_{p}")
        return super().__new__(cls, p, m, modulus)

    @classmethod
    def prime(cls, p: int) -> "FieldParams":
        return cls(p, 1, (0, 1))

    @classmethod
    def parse_spec(cls, text: str) -> "FieldParams":
        """Parse the textual field format p^m:c0,c1,...,cm."""
        mt = _SPEC_RE.match(text.strip())
        if not mt:
            raise ValueError(f"bad field spec {text!r}, expected p^m:c0,...,cm")
        if max(map(len, re.findall(r"\d+", text))) > MAX_SPEC_DIGITS:
            raise ValueError(f"field spec numbers have at most {MAX_SPEC_DIGITS} digits")
        p, m = int(mt.group(1)), int(mt.group(2))
        coeffs = tuple(int(c) for c in mt.group(3).split(","))
        if len(coeffs) != m + 1:
            raise ValueError(f"field spec {text!r} needs m+1 modulus coefficients")
        return cls(p, m, coeffs)

    @property
    def spec_string(self) -> str:
        return f"{self.p}^{self.m}:{','.join(str(c) for c in self.modulus)}"

    @property
    def order(self) -> int:
        return self.p ** self.m

    @functools.cached_property
    def t_powers(self) -> list[tuple[tuple[int, int], ...]]:
        """Coordinates of t^e mod the modulus for 0 <= e <= 2m - 2, as
        (r, coefficient) pairs with nonzero coefficient: every power a
        product of two coordinate vectors reaches."""
        out = []
        for e in range(2 * self.m - 1):
            red = _pdivmod([0] * e + [1], self.modulus, self.p)[1]
            out.append(tuple((r, c) for r, c in enumerate(red) if c))
        return out

    def element(self, value) -> "FieldElement":
        if isinstance(value, FieldElement):
            if value.params != self:
                raise ValueError("field element belongs to different params")
            return value
        if isinstance(value, int):
            coeffs = [value % self.p] + [0] * (self.m - 1)
            return FieldElement(self, tuple(coeffs))
        coeffs = [int(c) % self.p for c in value]
        if len(coeffs) > self.m:
            raise ValueError("too many coefficients for this field")
        coeffs += [0] * (self.m - len(coeffs))
        return FieldElement(self, tuple(coeffs))

    def zero(self) -> "FieldElement":
        return self.element(0)

    def one(self) -> "FieldElement":
        return self.element(1)

    def gen(self) -> "FieldElement":
        """The class of t; only meaningful for m >= 2."""
        if self.m < 2:
            raise ValueError("prime field has no distinguished generator")
        return self.element([0, 1])

    def elements(self):
        """All field elements in lexicographic coefficient order."""
        for coeffs in itertools.product(range(self.p), repeat=self.m):
            yield FieldElement(self, coeffs)

    @functools.cached_property
    def inverses(self) -> dict:
        """{coefficient tuple: tuple of its inverse}, filled by
        FieldElement.inverse over extension fields."""
        return {}

    @functools.cached_property
    def texts(self) -> dict:
        """{coefficient tuple: its text}, filled by element_text."""
        return {}

    @functools.cached_property
    def parsed(self) -> dict:
        """{text: coefficient tuple}, filled by parse_element; text that does
        not parse raises and is not kept."""
        return {}

    def element_text(self, coeffs: tuple) -> str:
        """The text of the element with these coefficients, as str gives it."""
        out = self.texts.get(coeffs)
        if out is None:
            out = self.texts[coeffs] = _format_element(FieldElement(self, coeffs))
        return out

    def parse_element(self, text: str) -> "FieldElement":
        coeffs = self.parsed.get(text)
        if coeffs is None:
            coeffs = self.parsed[text] = _parse_element(self, text).coeffs
        return FieldElement(self, coeffs)

    def __str__(self):
        return f"F_{self.order}" if self.m > 1 else f"F_{self.p}"


class FieldElement:
    """One element of F_{p^m}, stored as a reduced coefficient tuple."""

    __slots__ = ("params", "coeffs")

    def __init__(self, params: FieldParams, coeffs: tuple[int, ...]):
        self.params = params
        self.coeffs = tuple(coeffs)

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.params != self.params:
                raise ValueError("field params mismatch")
            return other
        if isinstance(other, int):
            return self.params.element(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        p = self.params.p
        return FieldElement(self.params, tuple((a + b) % p for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        p = self.params.p
        return FieldElement(self.params, tuple((a - b) % p for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __neg__(self):
        p = self.params.p
        return FieldElement(self.params, tuple(-a % p for a in self.coeffs))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        p = self.params.p
        prod = _pmul(self.coeffs, o.coeffs, p)
        red = _pdivmod(prod, self.params.modulus, p)[1]
        red += [0] * (self.params.m - len(red))
        return FieldElement(self.params, tuple(red))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        """Inverse: pow over F_p, else by `_inverse_coeffs`, once per
        coefficient tuple of the field (`FieldParams.inverses`)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        params = self.params
        if params.m == 1:
            return FieldElement(params, (pow(self.coeffs[0], -1, params.p),))
        out = params.inverses.get(self.coeffs)
        if out is None:
            out = params.inverses[self.coeffs] = _inverse_coeffs(params, self.coeffs)
        return FieldElement(params, out)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        out = self.params.one()
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self):
        return any(self.coeffs)

    def in_prime_field(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_int(self) -> int:
        """Integer representative in [0, p); errors outside the prime subfield."""
        if not self.in_prime_field():
            raise ValueError(f"{self} is not in the prime subfield")
        return self.coeffs[0]

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.params.element(other)
        return (
            isinstance(other, FieldElement)
            and self.params == other.params
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.params, self.coeffs))

    def __str__(self):
        return self.params.element_text(self.coeffs)

    def __repr__(self):
        return f"<{_format_element(self)} in {self.params}>"


def _inverse_coeffs(params: FieldParams, coeffs: tuple) -> tuple:
    """The coefficients of the inverse of a nonzero element of F_{p^m},
    by the extended Euclidean algorithm on F_p[t]."""
    p = params.p
    # invariant: s_k * element = r_k mod the modulus
    r0, r1 = list(params.modulus), _ptrim(list(coeffs))
    s0, s1 = [], [1]
    while len(r1) > 1:
        quot, rem = _pdivmod(r0, r1, p)
        step = itertools.zip_longest(s0, _pmul(quot, s1, p), fillvalue=0)
        r0, r1 = r1, rem
        s0, s1 = s1, _ptrim([(x - y) % p for x, y in step])
    inv = pow(r1[0], -1, p)
    out = [c * inv % p for c in s1]
    return tuple(out + [0] * (params.m - len(out)))


def _format_element(x: FieldElement) -> str:
    if x.params.m == 1:
        return str(x.coeffs[0])
    parts = []
    for k in range(x.params.m - 1, -1, -1):
        c = x.coeffs[k]
        if c == 0:
            continue
        if k == 0:
            parts.append(str(c))
        elif k == 1:
            parts.append("t" if c == 1 else f"{c}t")
        else:
            parts.append(f"t^{k}" if c == 1 else f"{c}t^{k}")
    return "+".join(parts) if parts else "0"


_TERM_RE = re.compile(r"^(\d+)?(?:(t)(?:\^(\d+))?)?$")


def _parse_element(params: FieldParams, text: str) -> FieldElement:
    s = text.replace(" ", "").replace("*", "")
    if not s:
        raise ValueError("empty field element text")
    coeffs = [0] * params.m
    for term in s.split("+"):
        mt = _TERM_RE.match(term)
        if not mt or (mt.group(1) is None and mt.group(2) is None):
            raise ValueError(f"bad field element term {term!r}")
        c = int(mt.group(1)) if mt.group(1) is not None else 1
        if mt.group(2) is None:
            k = 0
        elif mt.group(3) is None:
            k = 1
        else:
            k = int(mt.group(3))
        if k >= params.m:
            raise ValueError(f"power t^{k} out of range for {params}")
        coeffs[k] = (coeffs[k] + c) % params.p
    return params.element(coeffs)


def falling_factorial(x: FieldElement, i: int) -> FieldElement:
    """(x)_i = x(x-1)...(x-i+1) for a field element x and i >= 0."""
    out = x.params.one()
    for r in range(i):
        out = out * (x - r)
    return out


def square_root(x: FieldElement) -> FieldElement | None:
    """A root r with r*r == x, or None when x is a nonsquare.

    Tonelli-Shanks in F_q, q odd: write q - 1 = 2^e * Q with Q odd.  Euler's
    criterion x^((q-1)/2) = 1 decides squares; then r = x^((Q+1)/2) is a
    root up to the factor t = x^Q of 2-power order, which the loop clears
    with powers of z^Q, z the first nonsquare of `elements` (needed only
    when e > 1, and half the field is nonsquare).
    """
    field, half = x.params, (x.params.order - 1) // 2
    one = field.one()
    if x.is_zero():
        return x
    if x ** half != one:
        return None
    e, odd = 1, half
    while odd % 2 == 0:
        e, odd = e + 1, odd // 2
    r, t = x ** ((odd + 1) // 2), x ** odd
    if t != one:
        c = next(z for z in field.elements() if z and z ** half != one) ** odd
        while t != one:
            # least i with t^(2^i) = 1; then i < e
            i, s = 0, t
            while s != one:
                i, s = i + 1, s * s
            b = c ** (2 ** (e - i - 1))
            r, c, e = r * b, b * b, i
            t = t * c
    return r


def plane_kernel(field: FieldParams, rows: list) -> list:
    """Reduced basis of {(a, b) : a*x + b*y = 0 for every row (x, y)}.

    The kernel of a k x 2 matrix is the whole plane when every row is zero,
    nothing when two rows are independent (a nonzero 2x2 minor), and else
    the line orthogonal to the first nonzero row (x0, y0).  Each basis
    vector carries a 1 at its free coordinate: (-y0/x0, 1) when some x is
    nonzero, (1, 0) when every x is zero.
    """
    one, zero = field.one(), field.zero()
    lead = next(((x, y) for x, y in rows if not x.is_zero()), None)
    if lead is None:
        if all(y.is_zero() for _, y in rows):
            return [[one, zero], [zero, one]]
        return [[one, zero]]
    x0, y0 = lead
    if any(not (x0 * y - x * y0).is_zero() for x, y in rows):
        return []
    return [[-(y0 / x0), one]]
