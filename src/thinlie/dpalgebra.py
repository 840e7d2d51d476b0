"""Divided power algebra in two variables with bounded exponent heights.

Monomials are written x^(i)y^(j) with 0 <= i < p^n1 and 0 <= j < p^n2; the
algebra multiplies them by x^(i)y^(j) * x^(k)y^(l) = C(i+k, i) C(j+l, j)
x^(i+k)y^(j+l).  The package needs no general product: the one it uses,
a generalized power times a monomial, is a shift of exponents (see
`grading.build_closed_basis`), and the product itself is kept in the tests
as the reference that shift is checked against.

Elements live over an explicit finite field F_{p^m} = F_p[t]/(f) and every
operation returns a new element.  A coefficient is kept as its m prime-field
coordinates, one per power of t: an element is a sparse map from
(monomial, r) to the integer coefficient of t^r, so sums and products of
coefficients run on integers mod p through `accumulate`.  A product of two
coefficients lands on powers t^(r+s) up to 2m - 2, which `fold` reduces
once by the modulus.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .ffield import FieldElement, FieldParams, is_prime


class Monomial(NamedTuple):
    i: int
    j: int

    def text(self) -> str:
        return f"x^({self.i})y^({self.j})"


class Heights(NamedTuple("Heights", [("p", int), ("n1", int), ("n2", int)])):
    """Exponent bounds (p^n1, p^n2) of the algebra."""

    __slots__ = ()

    def __new__(cls, p: int, n1: int, n2: int):
        if not is_prime(p) or p < 3:
            raise ValueError(f"p must be an odd prime >= 3, got {p}")
        if n1 < 1 or n2 < 1:
            raise ValueError("heights must be >= 1")
        return super().__new__(cls, p, n1, n2)

    @property
    def xbound(self) -> int:
        return self.p ** self.n1

    @property
    def ybound(self) -> int:
        return self.p ** self.n2

    @property
    def q(self) -> int:
        return self.ybound

    @property
    def unit(self) -> Monomial:
        return Monomial(0, 0)

    @property
    def top(self) -> Monomial:
        """The monomial xbar*ybar of maximal exponents."""
        return Monomial(self.xbound - 1, self.ybound - 1)

    def contains(self, m: Monomial) -> bool:
        return 0 <= m.i < self.xbound and 0 <= m.j < self.ybound

    def monomials(self):
        for i in range(self.xbound):
            for j in range(self.ybound):
                yield Monomial(i, j)


def accumulate(terms: dict, pairs, p: int) -> dict:
    """Add (key, coefficient) pairs into terms, integers reduced mod p,
    dropping zero sums; returns terms.  Every sparse sum of the package runs
    through this one loop: on the integer tables, and on the F_p coordinates
    of algebra elements, keyed (monomial, r) for the coefficient of t^r.
    It reduces per term, not once per sum, because `SparseEchelon.reduce`
    and `grading._laguerre_series` add into one growing dict many times,
    and a reduce-once pass would reduce that whole dict again each time."""
    get, pop = terms.get, terms.pop
    for key, c in pairs:
        acc = get(key)
        if acc is not None:
            c += acc
        c %= p
        if c:
            terms[key] = c
        else:
            pop(key, None)
    return terms


def fold(terms: dict, field: FieldParams) -> dict:
    """Reduce the keys (key, e) with m <= e <= 2m - 2 of a coordinate sum
    by the modulus, t^e = sum of field.t_powers[e]; in place, returns terms.

    A product of two coordinate vectors over F_{p^m} lands on powers up to
    2m - 2; summing it first and folding once costs one pass per key."""
    m = field.m
    high = [(key, terms.pop(key)) for key in [k for k in terms if k[1] >= m]]
    if high:
        powers = field.t_powers
        accumulate(terms, (((mono, r), c * f) for (mono, e), c in high
                           for r, f in powers[e]), field.p)
    return terms


def _times(terms: dict, coords: list, field: FieldParams) -> dict:
    """Coordinates of c times an element, for c != 0 given by its nonzero
    coordinates (r, c_r)."""
    p = field.p
    if len(coords) == 1 and coords[0][0] == 0:
        x = coords[0][1]
        return {key: v * x % p for key, v in terms.items()}
    return fold(accumulate({}, (((mono, r + s), x * v) for (mono, s), v in terms.items()
                                for r, x in coords), p), field)


def _nonzero_coords(c: FieldElement) -> list:
    return [(r, x) for r, x in enumerate(c.coeffs) if x]


class AlgebraElement:
    """Sparse element of the divided power algebra over F_{p^m}.

    terms maps (monomial, r) to the coefficient of t^r in the monomial's
    F_{p^m} coefficient, an integer in [1, p); absent keys are zero, so
    equal elements have equal terms.  FieldElements appear only at the
    boundary: coeff, scale by a field element, text and parsing.
    """

    __slots__ = ("field", "heights", "terms")

    def __init__(self, field: FieldParams, heights: Heights, terms=()):
        if field.p != heights.p:
            raise ValueError("field and heights disagree on p")
        self.field = field
        self.heights = heights
        items = terms.items() if isinstance(terms, dict) else terms
        pairs = []
        for mono, c in items:
            mono = Monomial(*mono)
            if not heights.contains(mono):
                raise ValueError(f"monomial {mono} out of bounds for heights {heights}")
            pairs += [((mono, r), x) for r, x in _nonzero_coords(field.element(c))]
        self.terms = accumulate({}, pairs, field.p)

    @classmethod
    def _make(cls, field, heights, terms: dict) -> "AlgebraElement":
        # internal fast path: terms already canonical
        out = object.__new__(cls)
        out.field = field
        out.heights = heights
        out.terms = terms
        return out

    @classmethod
    def zero(cls, field, heights) -> "AlgebraElement":
        return cls._make(field, heights, {})

    @classmethod
    def from_monomial(cls, field, heights, mono, coeff=1) -> "AlgebraElement":
        return cls(field, heights, [(Monomial(*mono), coeff)])

    def _check_compatible(self, other: "AlgebraElement"):
        if self.field != other.field or self.heights != other.heights:
            raise ValueError("algebra element field/heights mismatch")

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def support(self):
        return sorted({mono for mono, _r in self.terms})

    def coeff(self, mono) -> FieldElement:
        mono = Monomial(*mono)
        get = self.terms.get
        return FieldElement(self.field, [get((mono, r), 0) for r in range(self.field.m)])

    def __add__(self, other):
        self._check_compatible(other)
        out = accumulate(dict(self.terms), other.terms.items(), self.field.p)
        return AlgebraElement._make(self.field, self.heights, out)

    def __neg__(self):
        p = self.field.p
        return AlgebraElement._make(
            self.field, self.heights, {key: p - c for key, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "AlgebraElement":
        """c times self, for c an integer or a field element."""
        if isinstance(c, int):
            c %= self.field.p
            coords = [(0, c)] if c else []
        else:
            coords = _nonzero_coords(self.field.element(c))
        if not coords:
            return AlgebraElement.zero(self.field, self.heights)
        return AlgebraElement._make(self.field, self.heights,
                                    _times(self.terms, coords, self.field))

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and self.field == other.field
            and self.heights == other.heights
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.field, self.heights, frozenset(self.terms.items())))

    def text(self) -> str:
        """Each coefficient's text read from the field's cache by its
        coordinates, with no FieldElement built."""
        if not self.terms:
            return "0"
        get, text_of, powers = self.terms.get, self.field.element_text, range(self.field.m)
        return " + ".join(f"({text_of(tuple(get((mono, r), 0) for r in powers))})*{mono.text()}"
                          for mono in self.support())

    def __str__(self):
        return self.text()

    def __repr__(self):
        return f"<{self.text()}>"


_ELEM_TERM_RE = re.compile(r"^\((?P<c>[^)]*)\)\*x\^\((?P<i>\d+)\)y\^\((?P<j>\d+)\)$")


def parse_element(field: FieldParams, heights: Heights, text: str) -> AlgebraElement:
    """Inverse of AlgebraElement.text(); bit-exact round trip on canonical output.

    Each term's coordinates are the coefficient tuple that
    `FieldParams.parse_element` caches per text, summed into the element's
    terms with no AlgebraElement built per term.  A term that does not
    parse raises first, then a monomial out of bounds."""
    s = text.strip()
    if s == "0":
        return AlgebraElement.zero(field, heights)
    monos, pairs = [], []
    for part in s.split(" + "):
        mt = _ELEM_TERM_RE.match(part.strip())
        if not mt:
            raise ValueError(f"bad element term {part!r}")
        mono = Monomial(int(mt.group("i")), int(mt.group("j")))
        monos.append(mono)
        pairs += [((mono, r), x)
                  for r, x in enumerate(field.parse_element(mt.group("c")).coeffs) if x]
    for mono in monos:
        if not heights.contains(mono):
            raise ValueError(f"monomial {mono} out of bounds for heights {heights}")
    return AlgebraElement._make(field, heights, accumulate({}, pairs, field.p))


def generalized_power(field: FieldParams, heights: Heights, sigma: FieldElement,
                      alpha: FieldElement, s: int) -> AlgebraElement:
    """(1 + sigma*x^(p^s))^alpha for a field-element exponent alpha.

    Expands to sum_{i=0}^{p-1} C(alpha, i) i! sigma^i x^(i p^s), whose
    coefficient (alpha)_i sigma^i, a falling factorial, is the one before
    times (alpha - i + 1) sigma; requires p^s < p^n1 so every term exists.
    In alpha this is a one-parameter group: the product of two such powers
    is the power at the sum of the exponents.
    """
    p = field.p
    ps = p ** s
    if s < 0 or ps >= heights.xbound:
        raise ValueError(f"step p^{s} out of range for heights {heights}")
    sigma = field.element(sigma)
    alpha = field.element(alpha)
    terms, c = {}, field.one()
    for i in range(p):
        for r, x in _nonzero_coords(c):
            terms[Monomial(i * ps, 0), r] = x
        c = c * (alpha - i) * sigma
    return AlgebraElement._make(field, heights, terms)


class SparseEchelon:
    """Incremental row echelon form over sparse algebra elements.

    The one rule: insert reduces the new vector until its leading monomial
    is no pivot, scales it to a unit lead and stores it under that lead.
    No older row changes.  So each row has coefficient 1 at its key, the
    key is the least monomial of the row's support, and no two rows share
    a key; a row's tail may still meet later pivots, and the stored rows
    depend on insertion order.  Ordered by key, the rows read at the keys
    form a unit upper-triangular matrix, so `coordinates` (the
    coefficients at the keys) is injective on the span, and `reduce` maps
    exactly the span to zero.  __eq__ compares the spans, not the rows.
    """

    def __init__(self, field: FieldParams, heights: Heights):
        self.field = field
        self.heights = heights
        self.rows: dict[Monomial, AlgebraElement] = {}

    def reduce(self, v: AlgebraElement) -> AlgebraElement:
        """v minus the row multiples that clear its leading pivots, in one dict."""
        if v.field != self.field or v.heights != self.heights:
            raise ValueError("algebra element field/heights mismatch")
        field = self.field
        p, m = field.p, field.m
        terms = dict(v.terms)
        while terms:
            lead = min(terms)[0]
            row = self.rows.get(lead)
            if row is None:
                break
            c = [(r, p - x) for r in range(m) if (x := terms.get((lead, r)))]
            accumulate(terms, _times(row.terms, c, field).items(), p)
        return AlgebraElement._make(field, self.heights, terms)

    def insert(self, v: AlgebraElement) -> bool:
        """Add v to the span by the class's rule; True iff the rank grew.

        The leading F_{p^m} coefficient is read with `coeff` and inverted
        as a FieldElement."""
        v = self.reduce(v)
        if v.is_zero():
            return False
        lead = min(v.terms)[0]
        self.rows[lead] = v.scale(v.coeff(lead).inverse())
        return True

    def coordinates(self, v: AlgebraElement) -> tuple:
        """v's coefficients at the pivots, in increasing order: injective on
        the span (see the class docstring)."""
        return tuple(v.coeff(m) for m in sorted(self.rows))

    def contains(self, v: AlgebraElement) -> bool:
        return self.reduce(v).is_zero()

    @property
    def rank(self) -> int:
        return len(self.rows)

    def basis(self) -> list[AlgebraElement]:
        return [self.rows[k] for k in sorted(self.rows)]

    def __eq__(self, other):
        """Equality of the spanned subspaces.

        The set of leading monomials of a span's nonzero vectors is the
        pivot set, so equal spans have equal pivot sets; with equal rank,
        one span containing the other's rows makes them equal.
        """
        return (
            isinstance(other, SparseEchelon)
            and self.field == other.field
            and self.heights == other.heights
            and self.rows.keys() == other.rows.keys()
            and all(other.contains(row) for row in self.rows.values())
        )
