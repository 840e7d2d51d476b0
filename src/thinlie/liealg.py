"""Two families of Hamiltonian-type modular Lie algebras on divided powers.

GradedHamiltonian is the algebra spanned by all height-bounded monomials
except the constant and the top monomial xbar*ybar (dimension p^(n1+n2) - 2);
AlbertZassenhaus keeps every monomial (dimension p^(n1+n2)) and deviates from
the plain Poisson rule only on brackets of two pure y-monomials, which pick up
a factor xbar.  Structure constants live in the prime field; each descriptor
keeps them in one integer table keyed by basis index, built on first use
from per-axis binomial tables: a Poisson constant is a 2x2 determinant of
an x-exponent factor pair and a y-exponent factor pair.
A bracket of two monomials is a multiple of one, so each derivation here
is a monomial map {i: (c, k)}, e_i -> c e_k, the format of a table row:
ad g is row g, and the distinguished nilpotent-or-semisimple derivation
D = (ad y)^(p^s) is built in closed form when n1 = s + 1.  Brackets and D
run on the integer coordinates of elements (one per power of t, see
`dpalgebra`) through its one accumulate loop: a bracket over F_{p^m} is the
table read once per pair of coordinates, keyed (monomial, r + s), then
folded once by the modulus.  The laws of the table and of D, and their
kernels, are in `laws`, which the verdicts kept here import when first
read: a command that checks no law does not load it.
"""

from __future__ import annotations

import enum
import functools
import importlib

from .dpalgebra import AlgebraElement, Heights, Monomial, accumulate, fold
from .ffield import FieldParams, lucas_binomial


class Family(enum.Enum):
    GRADED_HAMILTONIAN = "graded-hamiltonian"
    ALBERT_ZASSENHAUS = "albert-zassenhaus"


def poisson_coeff(p: int, i: int, j: int, k: int, l: int) -> int:
    """Structure constant of {x^(i)y^(j), x^(k)y^(l)} on x^(i+k-1)y^(j+l-1)."""
    return (
        lucas_binomial(i + k - 1, i, p) * lucas_binomial(j + l - 1, j - 1, p)
        - lucas_binomial(i + k - 1, i - 1, p) * lucas_binomial(j + l - 1, j, p)
    ) % p


def axis_factors(bound: int, p: int) -> list[list[tuple[int, int, int, int]]]:
    """The binomials of one exponent axis in the Poisson constants.

    out[e] lists (f, C(g, e), C(g, e - 1), g) mod p, g = e + f - 1, for every
    partner exponent f < bound with g >= 0 and the two binomials not both
    zero.  With (X0, X1) the pair of x exponents (i, k) and (Y0, Y1) that of
    y exponents (j, l), `poisson_coeff` is X0 Y1 - X1 Y0; the pairs left
    out give zero.  AlbertZassenhaus's pure-y constant C(g, l) - C(g, j) is
    Y1 - Y0, as C(g, l) = C(g, j - 1) for g = j + l - 1 >= 0.
    """
    out = []
    for e in range(bound):
        row = []
        for f in range(max(0, 1 - e), bound):
            g = e + f - 1
            b0, b1 = lucas_binomial(g, e, p), lucas_binomial(g, e - 1, p)
            if b0 or b1:
                row.append((f, b0, b1, g))
        out.append(row)
    return out


class AlgebraDescriptor:
    """One algebra: family, coefficient field and exponent heights.  Its
    table and the law verdicts on it are computed on first read and kept."""

    def __init__(self, family: Family, field: FieldParams, heights: Heights):
        if field.p != heights.p:
            raise ValueError("field and heights disagree on p")
        self.family = family
        self.field = field
        self.heights = heights
        if family is Family.GRADED_HAMILTONIAN:
            self.excluded = frozenset({heights.unit, heights.top})
        else:
            self.excluded = frozenset()
        self.basis = [m for m in heights.monomials() if m not in self.excluded]
        self._index = {m: k for k, m in enumerate(self.basis)}

    @property
    def dim(self) -> int:
        return len(self.basis)

    def zero(self) -> AlgebraElement:
        return AlgebraElement.zero(self.field, self.heights)

    def basis_element(self, mono, coeff=1) -> AlgebraElement:
        mono = Monomial(*mono)
        if mono not in self._index:
            raise ValueError(f"{mono} is not a basis monomial of this algebra")
        return AlgebraElement.from_monomial(self.field, self.heights, mono, coeff)

    @functools.cached_property
    def table(self) -> list[dict[int, tuple[int, int]]]:
        """Structure constants by basis index: table[i][j] = (c, k) when
        [basis[i], basis[j]] = c basis[k] with c != 0 mod p.

        Zero brackets have no entry.  Built on first use, entry for entry
        the rule of `_bracket_mono_raw`, from two per-axis tables: the
        Poisson constant of x^(i)y^(j), x^(k)y^(l) is the determinant
        X0 Y1 - X1 Y0 of the x factors (X0, X1) of (i, k) and the y factors
        (Y0, Y1) of (j, l), see `axis_factors`, and AlbertZassenhaus's
        pure-y constant is Y1 - Y0.  A nonzero constant past the heights or,
        in GradedHamiltonian, on the top monomial raises ArithmeticError.
        """
        h = self.heights
        p, xb, yb, n = h.p, h.xbound, h.ybound, self.dim
        # x^(i)y^(j) has basis index i*yb + j - shift: GH drops the constant,
        # the first monomial, and the top, the last
        shift = 1 if self.family is Family.GRADED_HAMILTONIAN else 0
        xs, ys = axis_factors(xb, p), axis_factors(yb, p)
        # one (c, t) tuple per constant and target, shared by every row:
        # a fresh tuple per entry would be most of the table's memory
        entry = [[(c, t) for t in range(n)] for c in range(p)]

        def overflow(a, b, c):
            return ArithmeticError(f"overflowing bracket {a},{b} has coefficient {c}")

        rows = []
        for a in self.basis:
            row = {}
            yrow = ys[a.j]
            if a.i == 0 and self.family is Family.ALBERT_ZASSENHAUS:
                # exceptional rule on pure y-monomials, lands on xbar*y^(j+l-1)
                for l, y0, y1, jy in yrow:
                    c = (y1 - y0) % p
                    if c:
                        if jy >= yb:
                            raise overflow(a, Monomial(0, l), c)
                        row[l] = entry[c][(xb - 1) * yb + jy]
            for k, x0, x1, ix in xs[a.i]:
                kb, kt = k * yb - shift, ix * yb - shift
                for l, y0, y1, jy in yrow:
                    c = (x0 * y1 - x1 * y0) % p
                    if not c or not 0 <= kb + l < n:  # zero, or b not in the basis
                        continue
                    if ix >= xb or jy >= yb:
                        raise overflow(a, Monomial(k, l), c)
                    t = kt + jy
                    if t < 0:
                        continue  # the constant, which acts as zero in GH
                    if t == n:
                        raise ArithmeticError(
                            f"bracket {a},{Monomial(k, l)} produced the excluded top monomial")
                    row[kb + l] = entry[c][t]
            rows.append(row)
        return rows

    @functools.cached_property
    def anticommutativity(self) -> list:
        from . import laws
        return laws.anticommutativity_violations(self)

    @functools.cached_property
    def generators(self) -> list[int] | None:
        from . import laws
        return laws.monomial_generators(self)

    @functools.cached_property
    def jacobi(self) -> list:
        from . import laws
        return laws.jacobi_violations(self)

    def bracket_mono(self, a: Monomial, b: Monomial):
        """Bracket of two basis monomials: (int coefficient, Monomial) or None."""
        index = self._index
        if a not in index or b not in index:
            raise ValueError(f"{a}, {b}: not both basis monomials of this algebra")
        hit = self.table[index[a]].get(index[b])
        if hit is None:
            return None
        return hit[0], self.basis[hit[1]]

    def _bracket_mono_raw(self, a: Monomial, b: Monomial):
        h = self.heights
        p = h.p
        if self.family is Family.ALBERT_ZASSENHAUS and a.i == 0 and b.i == 0:
            # exceptional rule on pure y-monomials, lands on xbar*y^(j+l-1)
            jy = a.j + b.j - 1
            if jy < 0:
                return None
            c = (lucas_binomial(jy, b.j, p) - lucas_binomial(jy, a.j, p)) % p
            if jy >= h.ybound:
                if c != 0:
                    raise ArithmeticError(
                        f"overflowing bracket {a},{b} has coefficient {c}")
                return None
            if c == 0:
                return None
            return c, Monomial(h.xbound - 1, jy)
        ix = a.i + b.i - 1
        jy = a.j + b.j - 1
        if ix < 0 or jy < 0:
            return None
        c = poisson_coeff(p, a.i, a.j, b.i, b.j)
        if ix >= h.xbound or jy >= h.ybound:
            if c != 0:
                raise ArithmeticError(
                    f"overflowing bracket {a},{b} has coefficient {c}")
            return None
        if c == 0:
            return None
        mono = Monomial(ix, jy)
        if self.family is Family.GRADED_HAMILTONIAN:
            if mono == h.unit:
                return None  # constants act as zero
            if mono == h.top:
                raise ArithmeticError(
                    f"bracket {a},{b} produced the excluded top monomial")
        return c, mono

    def _indexed(self, w: AlgebraElement):
        """(basis index, [(r, coordinate), ...]) per monomial of w;
        ValueError off the basis."""
        if w.field != self.field or w.heights != self.heights:
            raise ValueError("element does not live in this algebra")
        index, out = self._index, {}
        try:
            for (m, r), x in w.terms.items():
                out.setdefault(index[m], []).append((r, x))
        except KeyError as e:
            raise ValueError(
                f"element supported outside the basis: {e.args[0]}") from None
        return out.items()

    def bracket(self, u: AlgebraElement, v: AlgebraElement) -> AlgebraElement:
        """Lie bracket, bilinear over the structure-constant table.

        Each table hit [basis[i1], basis[i2]] = c basis[k] multiplies the
        coordinates of the two coefficients, t^r times t^s onto key
        (basis[k], r + s); the sum is folded by the modulus once."""
        left, right = self._indexed(u), self._indexed(v)
        rows, basis = self.table, self.basis

        def products():
            for i1, cs1 in left:
                row = rows[i1]
                for i2, cs2 in right:
                    hit = row.get(i2)
                    if hit is not None:
                        c, k = hit
                        mono = basis[k]
                        for r, x in cs1:
                            cx = c * x
                            for s, y in cs2:
                                yield (mono, r + s), cx * y

        terms = fold(accumulate({}, products(), self.field.p), self.field)
        return AlgebraElement._make(self.field, self.heights, terms)

    def project(self, v: AlgebraElement) -> AlgebraElement:
        """Restrict an ambient element onto the basis span.

        For GradedHamiltonian the constant term is dropped (constants act as
        zero); a top-monomial term cannot be silently discarded and errors.
        """
        if not self.excluded:
            return v
        unit, top = self.heights.unit, self.heights.top
        if any(mono == top for mono, _r in v.terms):
            raise ValueError("projection would discard a top-monomial term")
        terms = {key: c for key, c in v.terms.items() if key[0] != unit}
        return AlgebraElement._make(self.field, self.heights, terms)

    def __repr__(self):
        h = self.heights
        return f"<{self.family.value} p={h.p} heights=({h.n1},{h.n2}) dim={self.dim}>"


class Derivation:
    """The derivation D = (ad y)^(p^s), ad y = bracket with y on the left.

    Its table is a monomial map, like a row of the structure constants:
    {i: (c, k)} for D basis[i] = c basis[k], c != 0 mod p, and no entry
    where D basis[i] = 0.  For n1 = s + 1 it is built in
    closed form: writing a monomial as x^(a p^s + r) y^(j+1), 0 <= r < p^s,
    the image keeps (r, j) and either lowers a by one (a > 0, coefficient 1)
    or, in AlbertZassenhaus, wraps a to p - 1 with coefficient -j (a = 0;
    zero in GradedHamiltonian).  Otherwise it is s successive p-th powers of
    the row of y, the realization the closed form is checked against.
    Its Leibniz verdict is kept like the descriptor's.
    """

    def __init__(self, descriptor: AlgebraDescriptor, s: int):
        if s < 0:
            raise ValueError("s must be >= 0")
        self.descriptor = descriptor
        self.s = s
        self.has_closed_form = descriptor.heights.n1 == s + 1

    @functools.cached_property
    def table(self) -> dict[int, tuple[int, int]]:
        """The monomial map of D by basis index, built on first use."""
        build = _closed_form_table if self.has_closed_form else iterated_table
        return build(self.descriptor, self.s)

    @functools.cached_property
    def leibniz(self) -> list:
        from . import laws
        return laws.leibniz_violations(self)

    def apply(self, v: AlgebraElement) -> AlgebraElement:
        """D v: each coordinate of v times the table entry of its monomial."""
        table, basis = self.table, self.descriptor.basis
        images = ((table[i], coords) for i, coords in self.descriptor._indexed(v) if i in table)
        out = accumulate({}, (((basis[k], r), x * d) for (d, k), coords in images
                              for r, x in coords), v.field.p)
        return AlgebraElement._make(v.field, v.heights, out)


def _closed_form_table(desc: AlgebraDescriptor, s: int) -> dict[int, tuple[int, int]]:
    """The monomial map of (ad y)^(p^s) from its closed form, for n1 = s + 1."""
    p, ps, index = desc.heights.p, desc.heights.p ** s, desc._index
    table = {}
    for i, m in enumerate(desc.basis):
        if m.i >= ps:
            k, c = index.get(Monomial(m.i - ps, m.j)), 1
        else:
            k = index.get(Monomial((p - 1) * ps + m.i, m.j))
            c = 0 if desc.family is Family.GRADED_HAMILTONIAN else -(m.j - 1) % p
        if k is not None and c:
            table[i] = (c, k)
    return table


def iterated_table(desc: AlgebraDescriptor, s: int) -> dict[int, tuple[int, int]]:
    """The monomial map of (ad y)^(p^s): s successive p-th powers of ad y,
    the row of y in the structure-constant table.

    A power equal to the one before is a fixed point of the p-th power map,
    so every later power equals it too and the loop stops there.  The
    first power is a copy of the row, which D's table must not share."""
    p, power = desc.heights.p, dict(desc.table[desc._index[Monomial(0, 1)]])
    for _ in range(s):
        nxt = table_power(power, p, p)
        if nxt == power:
            break
        power = nxt
    return power


def table_power(table: dict, k: int, p: int) -> dict:
    """The monomial map table^k: each source of the table, in order,
    followed k times along its chain of entries, the coefficients
    multiplied mod p.  Only the chains that stay nonzero have an entry."""
    out = {}
    for i in sorted(table):
        c, t = 1, i
        for _ in range(k):
            if t not in table:
                break
            d, t = table[t]
            c = c * d % p
        else:
            out[i] = (c, t)
    return out


#: Names the benchmark's tracer still looks up in this module, by the module
#: that now defines them; served from there until its spans name that one.
_TRACED = dict.fromkeys(("anticommutativity_violations", "closure_violations",
                         "derivation_power_violations", "jacobi_violations",
                         "leibniz_violations", "realization_violations"), "laws")


def __getattr__(name):
    if name in _TRACED:
        return getattr(importlib.import_module(f".{_TRACED[name]}", __package__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
