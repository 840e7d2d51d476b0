"""Two families of Hamiltonian-type modular Lie algebras on divided powers.

GradedHamiltonian is the algebra spanned by all height-bounded monomials
except the constant and the top monomial xbar*ybar (dimension p^(n1+n2) - 2);
AlbertZassenhaus keeps every monomial (dimension p^(n1+n2)) and deviates from
the plain Poisson rule only on brackets of two pure y-monomials, which pick up
a factor xbar.  Structure constants live in the prime field; each descriptor
keeps them in one integer table keyed by basis index, built on first use
from per-axis binomial tables: a Poisson constant is a 2x2 determinant of
an x-exponent factor pair and a y-exponent factor pair.
The distinguished nilpotent-or-semisimple derivation D = (ad y)^(p^s) is a
second such table, in closed form when n1 = s + 1.  Brackets and D run
on the integer coordinates of elements (one per power of t, see
`dpalgebra`) through its one accumulate loop: a bracket over F_{p^m} is the
table read once per pair of coordinates, keyed (monomial, r + s), then
folded once by the modulus.  The exhaustive law checks sweep both tables
sparsely.  One row-wise kernel, `derivation_defects`, sums the defect of
a derivation table and serves two laws: Leibniz for D, and the Jacobi
certificate: on an anticommutative table Jacobi holds iff ad_g is a
derivation for each g of a few monomials that generate the algebra.  Only
when the certificate fails does the sweep over chained triples list the
failing triples.  The kernel and the generator walk take a table over
F_{p^m} as m integer layers, one per power of t, so `grading` runs them on
the switched product rules too; an integer table is the one-layer case.
"""

from __future__ import annotations

import enum
import functools

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


def _axis_factors(bound: int, p: int) -> list[list[tuple[int, int, int, int]]]:
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
    """One algebra: family, coefficient field and exponent heights."""

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
        (Y0, Y1) of (j, l), see `_axis_factors`, and AlbertZassenhaus's
        pure-y constant is Y1 - Y0.  A nonzero constant past the heights or,
        in GradedHamiltonian, on the top monomial raises ArithmeticError.
        """
        h = self.heights
        p, xb, yb, n = h.p, h.xbound, h.ybound, self.dim
        # x^(i)y^(j) has basis index i*yb + j - shift: GH drops the constant,
        # the first monomial, and the top, the last
        shift = 1 if self.family is Family.GRADED_HAMILTONIAN else 0
        xs, ys = _axis_factors(xb, p), _axis_factors(yb, p)

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
                        row[l] = (c, (xb - 1) * yb + jy)
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
                    row[kb + l] = (c, t)
            rows.append(row)
        return rows

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

    def _indexed(self, w: AlgebraElement) -> list:
        """(basis index, [(r, coordinate), ...]) per monomial of w;
        ValueError off the basis.  Kept on w, which never changes, so a
        sweep indexes each of its vectors once, not once per partner."""
        index = self._index
        cache = w._by_index
        if cache is not None and cache[0] is index:
            return cache[1]
        if w.field != self.field or w.heights != self.heights:
            raise ValueError("element does not live in this algebra")
        try:
            out = [(index[m], coords) for m, coords in w.by_monomial().items()]
        except KeyError as e:
            raise ValueError(
                f"element supported outside the basis: {e.args[0]}") from None
        w._by_index = (index, out)
        return out

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

    D is a second integer table beside the structure constants, table[i] =
    {k: c} for D basis[i] = sum of c basis[k], that apply runs through the
    same accumulate loop as the bracket.  For n1 = s + 1 it is built in
    closed form: writing a monomial as x^(a p^s + r) y^(j+1), 0 <= r < p^s,
    the image keeps (r, j) and either lowers a by one (a > 0, coefficient 1)
    or, in AlbertZassenhaus, wraps a to p - 1 with coefficient -j (a = 0;
    zero in GradedHamiltonian).  Otherwise it is s successive p-th powers of
    the row of y, the realization the closed form is checked against.
    """

    def __init__(self, descriptor: AlgebraDescriptor, s: int):
        if s < 0:
            raise ValueError("s must be >= 0")
        self.descriptor = descriptor
        self.s = s
        self.has_closed_form = descriptor.heights.n1 == s + 1

    @functools.cached_property
    def table(self) -> list[dict[int, int]]:
        """Image of each basis vector by basis index, built on first use."""
        build = _closed_form_table if self.has_closed_form else iterated_table
        return build(self.descriptor, self.s)

    def apply(self, v: AlgebraElement) -> AlgebraElement:
        """D v: each coordinate of v times the integer table row of its monomial."""
        table, basis = self.table, self.descriptor.basis
        terms = self.descriptor._indexed(v)
        out = accumulate({}, (((basis[k], r), x * d) for i, coords in terms
                              for k, d in table[i].items() for r, x in coords), v.field.p)
        return AlgebraElement._make(v.field, v.heights, out)


def _closed_form_table(desc: AlgebraDescriptor, s: int) -> list[dict[int, int]]:
    """The table of (ad y)^(p^s) from its closed form, for n1 = s + 1."""
    p, ps, index = desc.heights.p, desc.heights.p ** s, desc._index
    rows = []
    for m in desc.basis:
        if m.i >= ps:
            k, c = index.get(Monomial(m.i - ps, m.j)), 1
        else:
            k = index.get(Monomial((p - 1) * ps + m.i, m.j))
            c = 0 if desc.family is Family.GRADED_HAMILTONIAN else -(m.j - 1) % p
        rows.append({k: c} if k is not None and c else {})
    return rows


def ad_table(table: list, g: int) -> list[dict[int, int]]:
    """ad e_g as a derivation table: row g of a structure-constant table
    (such as `AlgebraDescriptor.table`), by partner."""
    row = table[g]
    return [{row[j][1]: row[j][0]} if j in row else {} for j in range(len(table))]


def iterated_table(desc: AlgebraDescriptor, s: int) -> list[dict[int, int]]:
    """The table of (ad y)^(p^s): s successive p-th powers of ad y.

    A power equal to the one before is a fixed point of the p-th power map,
    so every later power equals it too and the loop stops there."""
    p, power = desc.heights.p, ad_table(desc.table, desc._index[Monomial(0, 1)])
    for _ in range(s):
        nxt = table_power(power, p, p)
        if nxt == power:
            break
        power = nxt
    return power


def table_power(table: list, k: int, p: int) -> list[dict[int, int]]:
    """Rows of table^k: each basis vector followed k times through the table."""
    rows = []
    for i in range(len(table)):
        vec = {i: 1}
        for _ in range(k):
            vec = accumulate({}, ((t, c * d) for j, c in vec.items()
                                  for t, d in table[j].items()), p)
        rows.append(vec)
    return rows


# ---------------------------------------------------------------------------
# exhaustive law checks over the integer structure-constant table
#
# Each sweep visits only the pairs or triples where the table has an entry
# in some term of the law; every other one has both sides zero.  Violations
# are listed in basis order, as a dense sweep over all pairs or triples
# would find them.

def anticommutativity_violations(desc: AlgebraDescriptor) -> list:
    """[u,v] = -[v,u] and [u,u] = 0 over all basis monomial pairs.

    Diagonal violations come first, then pairs (a, b) with a before b.
    """
    p = desc.heights.p
    rows, basis = desc.table, desc.basis
    diag = [basis[i] for i, row in enumerate(rows) if i in row]
    bad = []
    for i, row in enumerate(rows):
        for j, ab in row.items():
            if j > i:
                ba = rows[j].get(i)
                if ba is None or ab[1] != ba[1] or (ab[0] + ba[0]) % p:
                    bad.append((i, j))
            elif j < i and i not in rows[j]:
                bad.append((j, i))
    bad.sort()
    return [(a, a) for a in diag] + [(basis[i], basis[j]) for i, j in bad]


def jacobi_violations(desc: AlgebraDescriptor, anticommutativity: list | None = None) -> list:
    """Jacobi identity over all strictly sorted basis monomial triples.

    Together with bilinearity and the anticommutativity check this covers
    every triple: permutations only flip the sign of the cyclic sum and
    repeated entries vanish identically.

    A certificate decides the identity first.  In an anticommutative
    algebra Jacobi says that every ad_a is a derivation, and the a with
    ad_a a derivation form a subalgebra, as ad_[a,b] = [ad_a, ad_b] once
    ad_a is one (Jacobson, Lie Algebras).  So when the table is
    anticommutative and `jacobi_certificate` holds, no triple fails and the
    list is empty.  Otherwise `_jacobi_sweep` lists the failing triples.
    `anticommutativity` is the list `anticommutativity_violations` returns,
    computed here when not given.
    """
    if anticommutativity is None:
        anticommutativity = anticommutativity_violations(desc)
    if not anticommutativity and jacobi_certificate(desc):
        return []
    return _jacobi_sweep(desc)


def jacobi_certificate(desc: AlgebraDescriptor) -> bool:
    """`monomial_generators` finds generators and `derivation_defects`
    finds no defect of `ad_table` for each of them.  On an anticommutative
    table this proves the Jacobi identity; its failure proves nothing."""
    gens = monomial_generators(desc)
    return gens is not None and all(
        next(derivation_defects([desc.table], [ad_table(desc.table, g)], desc.field,
                                half=True),
             None) is None
        for g in gens)


def monomial_generators(desc: AlgebraDescriptor) -> list[int] | None:
    """Basis indexes of monomials that generate the algebra, or None.

    Candidates are the monomials of exponent sum at most 1, whose ad
    lowers exponents (x and y act as divided-power derivatives), then the
    basis monomials no other one bounds exponent-wise, from which the
    lowering reaches the rest; `table_generators` walks the table from
    them.  Assumes an anticommutative table.
    """
    basis = desc.basis
    last = {m.i: m for m in basis}  # the largest j at each i, basis order
    maximal, j = [], -1
    for i in sorted(last, reverse=True):  # maximal: no larger i reaches its j
        if last[i].j > j:
            maximal.append(desc._index[last[i]])
            j = last[i].j
    low = [k for k, m in enumerate(basis) if m.i + m.j <= 1]
    return table_generators([desc.table], low + maximal)


def table_generators(rows: list, candidates: list) -> list[int] | None:
    """The candidates that generate the algebra of a table, or None.

    rows holds the table in coordinate layers, as `derivation_defects`
    takes it (one layer for an integer table): rows[r][u] = {v: (x, k)}
    for [e_u, e_v] = c e_k, x != 0 the t^r coordinate of c.  A bracket of
    basis vectors is a scalar times one basis vector, so the subalgebra
    generated by some basis vectors is spanned by those reached from them
    through entries.  Each candidate not yet reached becomes a generator.
    Returns None when the candidates reach only part of the basis.
    Assumes an anticommutative table, so each unordered pair is read from
    one row.
    """
    n = len(rows[0])
    reached, done, gens = [False] * n, [False] * n, []
    for g in candidates:
        if reached[g]:
            continue
        gens.append(g)
        reached[g], stack = True, [g]
        while stack:  # each pair is read when its later member is taken
            u = stack.pop()
            done[u] = True
            for layer in rows:
                for v, (_x, k) in layer[u].items():
                    if done[v] and not reached[k]:
                        reached[k] = True
                        stack.append(k)
    return gens if all(reached) else None


def derivation_defects(rows: list, images: list, field: FieldParams, half: bool = False):
    """(a, sorted b) for every a where D[a,b] = [Da,b] + [a,Db] fails.

    Both tables come in coordinate layers over field = F_{p^m}, layer r
    holding the integer coefficients of t^r: rows[r][a] = {b: (x, t)}
    for the bracket [a, b] = c e_t, x the t^r coordinate of c, and
    images[s][i] = {k: y} for the derivation D e_i = sum of d e_k, y the
    t^s coordinate of d; zero coordinates have no entry.  The integer
    tables of an algebra are the case m = 1, one layer each.  Row by row,
    the defect D[a,b] - [Da,b] - [a,Db] is summed over every b at once,
    keyed (b, target, r + s), from three sources: the entries of row a,
    each read once for D[a,b] and for the b with its partner in the
    support of Db, and the rows of the support of Da.  Any other b has all
    three sides zero.  What is left of the sum is folded by the modulus.
    With half, only b > a is summed, which suffices when the defect is
    antisymmetric in (a, b), as for ad_g on an anticommutative table.
    """
    p, n = field.p, len(rows[0])
    # terms[i]: (k, s, y) over the coordinates of D e_i, read once per entry
    terms = [[(k, s, y) for s, layer in enumerate(images) for k, y in layer[i].items()]
             for i in range(n)]
    preimages = [[] for _ in range(n)]  # preimages[k]: (b, s, -y), e_k a term of D e_b
    for b, image in enumerate(terms):
        for k, s, y in image:
            preimages[k].append((b, s, -y))
    # per row layer r, both lists with the power r + s of the product
    shifted = [([[(k, r + s, y) for k, s, y in image] for image in terms],
                [[(b, r + s, y) for b, s, y in pre] for pre in preimages])
               for r in range(len(rows))]

    def defect(a, lo):
        for layer, (image, before) in zip(rows, shifted):
            for k, (x, t) in layer[a].items():
                if k > lo:  # D[a, k]
                    for u, e, y in image[t]:
                        yield (k, u, e), x * y
                for b, e, y in before[k]:  # -[a, Db]
                    if b > lo:
                        yield (b, t, e), x * y
        for k, s, y in terms[a]:  # -[Da, b]
            y = -y
            for r, layer in enumerate(rows):
                e = r + s
                for b, (x, t) in layer[k].items():
                    if b > lo:
                        yield (b, t, e), x * y

    for a in range(n):
        left = accumulate({}, defect(a, a if half else -1), p)
        if left:
            left = fold({((b, t), e): c for (b, t, e), c in left.items()}, field)
        if left:
            yield a, sorted({b for (b, _t), _e in left})


def _jacobi_sweep(desc: AlgebraDescriptor) -> list:
    """The failing strictly sorted triples of `jacobi_violations`, by chains.

    For a < b < c the cyclic sum
    [[a,b],c] + [[b,c],a] + [[c,a],b] is accumulated from the chains of two
    table entries that make up its terms, grouped by a: [[a,b],c] from row
    a, [[b,c],a] from the entries of column a, [[c,a],b] from the pairs
    (c, a).  A triple that no chain reaches has an empty sum.
    """
    p = desc.heights.p
    rows, basis = desc.table, desc.basis
    n = len(rows)
    into = [[] for _ in range(n)]  # into[m]: (u, v, c), u < v, table[u][v] = (c, m)
    column = [[] for _ in range(n)]  # column[w]: every u with an entry table[u][w]
    for u, row in enumerate(rows):
        for v, (c, m) in row.items():
            if u < v:
                into[m].append((u, v, c))
            column[v].append(u)

    def cyclic_terms(a):  # ((b, c, target), coefficient) over every b, c > a
        for b, (c1, m) in rows[a].items():  # [[a, b], c]
            if b > a:
                for c, (c2, m2) in rows[m].items():
                    if c > b:
                        yield (b, c, m2), c1 * c2
        for m in column[a]:  # [[b, c], a]
            c2, m2 = rows[m][a]
            for b, c, c1 in into[m]:
                if b > a:
                    yield (b, c, m2), c1 * c2
        for c in column[a]:  # [[c, a], b]
            if c > a:
                c1, m = rows[c][a]
                for b, (c2, m2) in rows[m].items():
                    if a < b < c:
                        yield (b, c, m2), c1 * c2

    bad = []
    for a in range(n):
        failing = {(b, c) for b, c, _m2 in accumulate({}, cyclic_terms(a), p)}
        bad.extend((basis[a], basis[b], basis[c]) for b, c in sorted(failing))
    return bad


def closure_violations(desc: AlgebraDescriptor) -> list:
    """Every bracket of basis monomials is supported on the basis.

    For GradedHamiltonian this also certifies that the unprojected Poisson
    rule never produces the excluded top monomial with nonzero coefficient;
    the only partner b of a with a.i + b.i - 1, a.j + b.j - 1 at the top is
    (xbar + 1 - a.i, ybar + 1 - a.j), read off in closed form.
    """
    h = desc.heights
    p = h.p
    rows, basis, n = desc.table, desc.basis, desc.dim
    bad = {(i, j) for i, row in enumerate(rows)
           for j, (_c, k) in row.items() if not 0 <= k < n}
    if desc.family is Family.GRADED_HAMILTONIAN:
        for i, a in enumerate(basis):
            j = desc._index.get(Monomial(h.xbound - a.i, h.ybound - a.j))
            if j is not None and poisson_coeff(p, a.i, a.j, *basis[j]) != 0:
                bad.add((i, j))
    return [(basis[i], basis[j]) for i, j in sorted(bad)]


def leibniz_violations(deriv: Derivation) -> list:
    """D[u,v] = [Du,v] + [u,Dv] over all basis monomial pairs.

    The defect of the derivation table, summed row by row by
    `derivation_defects`.
    """
    basis = deriv.descriptor.basis
    return [(basis[a], basis[b])
            for a, bs in derivation_defects([deriv.descriptor.table], [deriv.table],
                                               deriv.descriptor.field) for b in bs]


def derivation_power_violations(deriv: Derivation) -> list:
    """Family-specific power laws of D on every basis monomial.

    GradedHamiltonian with n1 = s+1: D^p = 0.  AlbertZassenhaus with
    n1 = s+1: D^p is diagonal with eigenvalue -j on y-exponent j+1, and
    consequently D^(p^2) = D^p.  Other (s, n1) carry no claimed power law,
    so the check is vacuous there.  The powers are integer tables: D^p
    follows the derivation table p times, D^(p^2) follows D^p p times.
    """
    desc = deriv.descriptor
    if not deriv.has_closed_form:
        return []
    p = desc.heights.p
    dp = table_power(deriv.table, p, p)
    if desc.family is Family.GRADED_HAMILTONIAN:
        return [(m, "D^p != 0") for m, row in zip(desc.basis, dp) if row]
    dpp = table_power(dp, p, p)
    bad = []
    for i, m in enumerate(desc.basis):
        c = -(m.j - 1) % p
        if dp[i] != ({i: c} if c else {}):
            bad.append((m, "D^p eigenvalue"))
        if dpp[i] != dp[i]:
            bad.append((m, "D^(p^2) != D^p"))
    return bad


def realization_violations(deriv: Derivation) -> list:
    """Closed-form vs iterated-ad derivation table on every basis monomial."""
    if not deriv.has_closed_form:
        return []
    desc = deriv.descriptor
    iterated = iterated_table(desc, deriv.s)
    return [m for m, closed, it in zip(desc.basis, deriv.table, iterated) if closed != it]
