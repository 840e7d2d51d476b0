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
folded once by the modulus.  The exhaustive law checks sweep the table and
D sparsely.  One row-wise kernel, `derivation_defects`, sums the defects
of a list of derivations on the rows it is given, in one sweep of
those rows, and serves two laws: Leibniz for D, and the Jacobi
certificate: on an anticommutative table Jacobi holds iff ad_g is a
derivation for each g of a few monomials that generate the algebra, and
one kernel pass sums every such ad_g at once.  Only when the certificate
fails does the sweep over chained triples list the failing triples.  The
same subalgebra argument decides Leibniz once the table is a Lie algebra:
it holds iff it holds on the generator rows, and only a failure there sums
every row, to list the failing pairs.  The other laws of D, its power law
and its realization as (ad y)^(p^s), walk its monomial map from every
source in O(n p) and O(s n p) dict reads, and read no verdict.  Each
entry-wise law is one kernel too: `antisymmetry_violations`, and
`additive_violations` (degrees add along entries: a grading).  The kernels
and the generator walk take a table over F_{p^m} as m integer layers, one
per power of t, so `grading` runs them on the switched product rules too;
an integer table is the one-layer case.
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
        return anticommutativity_violations(self)

    @functools.cached_property
    def generators(self) -> list[int] | None:
        return monomial_generators(self)

    @functools.cached_property
    def jacobi(self) -> list:
        return jacobi_violations(self)

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
        return leibniz_violations(self)

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


# ---------------------------------------------------------------------------
# exhaustive law checks over structure-constant tables
#
# Each sweep visits only the pairs or triples where the table has an entry
# in some term of the law; every other one has both sides zero.  Violations
# are listed in basis order, as a dense sweep over all pairs or triples
# would find them.

def antisymmetry_violations(rows: list, p: int) -> list:
    """Where a table in coordinate layers, as `derivation_defects` takes
    it, breaks [e_a, e_b] = -[e_b, e_a]: (a, a) for each diagonal entry
    first, then the sorted pairs a < b with, in some layer, a missing
    mirror, two targets or coordinates that do not sum to 0 mod p."""
    diag, bad = set(), []
    for layer in rows:
        for i, row in enumerate(layer):
            for j, ab in row.items():
                if j > i:
                    ba = layer[j].get(i)
                    if ba is None or ab[1] != ba[1] or (ab[0] + ba[0]) % p:
                        bad.append((i, j))
                elif j == i:
                    diag.add(i)
                elif i not in layer[j]:
                    bad.append((j, i))
    return [(a, a) for a in sorted(diag)] + sorted(set(bad))


def additive_violations(rows: list, weight: list, modulus: int) -> list:
    """The sorted pairs (a, b) where a table in coordinate layers has an
    entry [e_a, e_b] = c e_t with weight[t] != weight[a] + weight[b] mod
    modulus: none for degrees means a grading."""
    bad = []
    for layer in rows:
        for a, row in enumerate(layer):
            wa = weight[a]
            for b, (_x, t) in row.items():
                if (weight[t] - wa - weight[b]) % modulus:
                    bad.append((a, b))
    return sorted(set(bad))


def anticommutativity_violations(desc: AlgebraDescriptor) -> list:
    """[u,v] = -[v,u] and [u,u] = 0 over all basis monomial pairs, by
    `antisymmetry_violations`: diagonal ones first, then a before b."""
    basis = desc.basis
    return [(basis[a], basis[b]) for a, b in antisymmetry_violations([desc.table], desc.heights.p)]


def jacobi_violations(desc: AlgebraDescriptor) -> list:
    """Jacobi identity over all strictly sorted basis monomial triples.

    Together with bilinearity and the anticommutativity check this covers
    every triple: permutations only flip the sign of the cyclic sum and
    repeated entries vanish identically.

    A certificate decides the identity first.  In an anticommutative
    algebra Jacobi says that every ad_a is a derivation, and the a with
    ad_a a derivation form a subalgebra, as ad_[a,b] = [ad_a, ad_b] once
    ad_a is one (Jacobson, Lie Algebras).  So when the table is
    anticommutative and `ads_are_derivations` holds on the generators
    `monomial_generators` finds, in one kernel pass over the rows, the
    list is empty.  Otherwise, as that failure proves nothing,
    `_jacobi_sweep` lists the failing triples.
    """
    gens = None if desc.anticommutativity else desc.generators
    if gens is not None and ads_are_derivations([desc.table], gens, desc.field):
        return []
    return _jacobi_sweep(desc)


def ads_are_derivations(rows: list, gens: list, field: FieldParams,
                        visit: list | None = None) -> bool:
    """Whether ad_g is a derivation of the table for every g in gens, on
    the rows in visit against every b (on every pair when visit is None).

    rows holds the table in coordinate layers, as `derivation_defects`
    takes it, and ad_g is row g of each layer, itself a monomial map in the
    derivation format.  One run of the kernel sums the defects of every
    ad_g in a single sweep of the rows.  Without visit only the pairs
    b > a are summed: on an anticommutative table the defect of ad_g is
    antisymmetric in (a, b)."""
    derivations = [[layer[g] for layer in rows] for g in gens]
    return next(derivation_defects(rows, derivations, field, visit is None, visit), None) is None


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


def derivation_defects(rows: list, derivations: list, field: FieldParams,
                       half: bool = False, visit: list | None = None):
    """(a, sorted b) for every a in visit (every basis index when visit is
    None, in order) where D[a,b] = [Da,b] + [a,Db] fails for some D of
    derivations; the b of every failing D are listed together.

    Every table comes in coordinate layers over field = F_{p^m}, layer r
    holding the integer coefficients of t^r: rows[r][a] = {b: (x, t)}
    for the bracket [a, b] = c e_t, x the t^r coordinate of c, and each
    D of derivations is a monomial map in the same format,
    D[s] = {i: (y, k)} for D e_i = d e_k, y the t^s coordinate of d, so
    rows[r][g] is the layer r of ad_g; zero coordinates have no entry.  The integer
    tables of an algebra are the case m = 1, one layer each.  One sweep of
    the rows serves every derivation: row by row, the defects
    D[a,b] - [Da,b] - [a,Db] of all of them are summed over every b at
    once, keyed (index of D, b, target, r + s), so the defects of two
    derivations never cancel.  They come from three sources: the entries
    of row a, each read once for D[a,b] and for the b with its partner in
    the support of Db, and the rows of the support of Da.  Any other b has
    all three sides zero.  What is left of the sum is folded by the
    modulus.  Layers without an entry are skipped.  With half, only b > a
    is summed, which suffices when every defect is antisymmetric in
    (a, b), as for ad_g on an anticommutative table.
    """
    p, n = field.p, len(rows[0])
    # terms[i]: (index of D, k, s, y) over the coordinates of each D e_i
    terms = [[] for _ in range(n)]
    preimages = [[] for _ in range(n)]  # preimages[k]: (d, b, s, -y), D e_b on e_k
    for d, images in enumerate(derivations):
        for s, layer in enumerate(images):
            for i, (y, k) in layer.items():
                terms[i].append((d, k, s, y))
                preimages[k].append((d, i, s, -y))
    layers = [(r, layer) for r, layer in enumerate(rows) if any(layer)]
    # per row layer r, both lists with the power r + s of the product
    shifted = [(layer, [[(d, k, r + s, y) for d, k, s, y in image] for image in terms],
                [[(d, b, r + s, y) for d, b, s, y in pre] for pre in preimages])
               for r, layer in layers]

    def defect(a, lo):
        for layer, image, before in shifted:
            for k, (x, t) in layer[a].items():
                if k > lo:  # D[a, k]
                    for d, u, e, y in image[t]:
                        yield (d, k, u, e), x * y
                for d, b, e, y in before[k]:  # -[a, Db]
                    if b > lo:
                        yield (d, b, t, e), x * y
        for d, k, s, y in terms[a]:  # -[Da, b]
            y = -y
            for r, layer in layers:
                e = r + s
                for b, (x, t) in layer[k].items():
                    if b > lo:
                        yield (d, b, t, e), x * y

    for a in range(n) if visit is None else visit:
        left = accumulate({}, defect(a, a if half else -1), p)
        if left:
            left = fold({((d, b, t), e): c for (d, b, t, e), c in left.items()}, field)
        if left:
            yield a, sorted({b for (_d, b, _t), _e in left})


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
    `derivation_defects` with D as its one derivation.  On a Lie algebra
    the a with D[a,b] = [Da,b] + [a,Db] for every b form a subalgebra
    (Jacobson, Lie Algebras), so once anticommutativity and Jacobi hold,
    the rows of the generators decide the law: when none of them fails
    over every b, the list is empty.  Otherwise every row is summed over
    every b to list the failing pairs, in order.
    """
    desc = deriv.descriptor
    rows, derivations = [desc.table], [[deriv.table]]
    gens = desc.generators if not desc.anticommutativity and not desc.jacobi else None
    if gens is not None and next(derivation_defects(rows, derivations, desc.field, visit=gens),
                                 None) is None:
        return []
    return [(desc.basis[a], desc.basis[b])
            for a, bs in derivation_defects(rows, derivations, desc.field) for b in bs]


def derivation_power_violations(deriv: Derivation) -> list:
    """Family-specific power laws of D on every basis monomial.

    GradedHamiltonian with n1 = s+1: D^p = 0.  AlbertZassenhaus with
    n1 = s+1: D^p is the diagonal map E with eigenvalue -j on y-exponent
    j+1, and consequently D^(p^2) = D^p.  Other (s, n1) carry no claimed
    power law, so the check is vacuous there.  The powers are monomial
    maps, walked from every source: D^p follows each chain of D's table p
    times, D^(p^2) follows D^p p times, O(n p) dict reads each.  No other
    verdict is read.
    """
    desc = deriv.descriptor
    if not deriv.has_closed_form:
        return []
    p = desc.heights.p
    dp = table_power(deriv.table, p, p)
    if desc.family is Family.GRADED_HAMILTONIAN:
        return [(desc.basis[i], "D^p != 0") for i in dp]
    diagonal = [-(m.j - 1) % p for m in desc.basis]  # the eigenvalues of E
    expected = {i: (c, i) for i, c in enumerate(diagonal) if c}
    dpp = table_power(dp, p, p)
    bad = []
    for i, m in enumerate(desc.basis):
        if dp.get(i) != expected.get(i):
            bad.append((m, "D^p eigenvalue"))
        if dpp.get(i) != dp.get(i):
            bad.append((m, "D^(p^2) != D^p"))
    return bad


def realization_violations(deriv: Derivation) -> list:
    """Closed-form vs iterated-ad derivation table on every basis monomial:
    the monomials where D's map and `iterated_table`, s p-th powers of the
    row of y, differ, O(s n p) dict reads.  No other verdict is read."""
    if not deriv.has_closed_form:
        return []
    desc, table = deriv.descriptor, deriv.table
    iterated = iterated_table(desc, deriv.s)
    return [m for i, m in enumerate(desc.basis) if table.get(i) != iterated.get(i)]
