"""Two families of Hamiltonian-type modular Lie algebras on divided powers.

GradedHamiltonian is the algebra spanned by all height-bounded monomials
except the constant and the top monomial xbar*ybar (dimension p^(n1+n2) - 2);
AlbertZassenhaus keeps every monomial (dimension p^(n1+n2)) and deviates from
the plain Poisson rule only on brackets of two pure y-monomials, which pick up
a factor xbar.  Structure constants live in the prime field; each descriptor
keeps them in one integer table keyed by basis index, built on first use.
Also defines the distinguished nilpotent-or-semisimple derivation
(ad y)^(p^s) with its closed form when n1 = s + 1, and the exhaustive law
checks, which sweep that table sparsely.
"""

from __future__ import annotations

import enum

from .dpalgebra import AlgebraElement, Heights, Monomial
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
        self._rows: list[dict[int, tuple[int, int]]] | None = None

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

    @property
    def table(self) -> list[dict[int, tuple[int, int]]]:
        """Structure constants by basis index: table[i][j] = (c, k) when
        [basis[i], basis[j]] = c basis[k] with c != 0 mod p.

        Zero brackets have no entry.  Built on first use from
        `_bracket_mono_raw` over every ordered pair, so its overflow and
        top-monomial errors fire here.
        """
        if self._rows is None:
            basis, index, raw = self.basis, self._index, self._bracket_mono_raw
            rows = []
            for a in basis:
                row = {}
                for jb, b in enumerate(basis):
                    hit = raw(a, b)
                    if hit is not None:
                        c, mono = hit
                        k = index.get(mono)
                        if k is None:
                            raise ArithmeticError(
                                f"bracket {a},{b} lands outside the basis on {mono}")
                        row[jb] = (c, k)
                rows.append(row)
            self._rows = rows
        return self._rows

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

    def bracket(self, u: AlgebraElement, v: AlgebraElement) -> AlgebraElement:
        """Lie bracket, bilinear over the structure-constant table."""
        index = self._index
        terms = []
        for w in (u, v):
            if w.field != self.field or w.heights != self.heights:
                raise ValueError("element does not live in this algebra")
            try:
                terms.append([(index[m], c) for m, c in w.terms.items()])
            except KeyError as e:
                raise ValueError(
                    f"element supported outside the basis: {e.args[0]}") from None
        rows, basis = self.table, self.basis
        out = {}
        for i1, c1 in terms[0]:
            row = rows[i1]
            for i2, c2 in terms[1]:
                hit = row.get(i2)
                if hit is None:
                    continue
                k, t = hit
                mono = basis[t]
                c = c1 * c2 * k
                acc = out.get(mono)
                c = c if acc is None else acc + c
                if c.is_zero():
                    out.pop(mono, None)
                else:
                    out[mono] = c
        return AlgebraElement._make(self.field, self.heights, out)

    def project(self, v: AlgebraElement) -> AlgebraElement:
        """Restrict an ambient element onto the basis span.

        For GradedHamiltonian the constant term is dropped (constants act as
        zero); a top-monomial term cannot be silently discarded and errors.
        """
        if not self.excluded:
            return v
        terms = dict(v.terms)
        terms.pop(self.heights.unit, None)
        if self.heights.top in terms:
            raise ValueError("projection would discard a top-monomial term")
        return AlgebraElement._make(self.field, self.heights, terms)

    def __repr__(self):
        h = self.heights
        return f"<{self.family.value} p={h.p} heights=({h.n1},{h.n2}) dim={self.dim}>"


class Derivation:
    """The derivation (ad y)^(p^s), ad y = bracket with y on the left.

    For n1 = s + 1 a closed form is available: writing a monomial as
    x^(a p^s + r) y^(j+1) with 0 <= r < p^s, the image keeps (r, j) and either
    lowers a by one (a > 0, coefficient 1) or, in AlbertZassenhaus, wraps a to
    p - 1 with coefficient -j (a = 0; zero in GradedHamiltonian).  Both
    realizations are exposed so they can be checked against each other.
    """

    def __init__(self, descriptor: AlgebraDescriptor, s: int):
        if s < 0:
            raise ValueError("s must be >= 0")
        self.descriptor = descriptor
        self.s = s
        self.has_closed_form = descriptor.heights.n1 == s + 1
        self._y = descriptor.basis_element(Monomial(0, 1))

    def apply_mono(self, m: Monomial):
        """Closed-form image of a basis monomial: (int, Monomial) or None."""
        if not self.has_closed_form:
            raise ValueError("closed form needs n1 = s + 1")
        h = self.descriptor.heights
        p = h.p
        ps = p ** self.s
        a, r = divmod(m.i, ps)
        if a > 0:
            tgt = Monomial(m.i - ps, m.j)
            if tgt in self.descriptor.excluded:
                return None
            return 1, tgt
        if self.descriptor.family is Family.GRADED_HAMILTONIAN:
            return None
        c = -(m.j - 1) % p
        if c == 0:
            return None
        return c, Monomial((p - 1) * ps + r, m.j)

    def apply(self, v: AlgebraElement) -> AlgebraElement:
        if not self.has_closed_form:
            return self.apply_iterated(v)
        out = {}
        for mono, coeff in v.terms.items():
            hit = self.apply_mono(mono)
            if hit is None:
                continue
            k, tgt = hit
            c = coeff * k
            acc = out.get(tgt)
            c = c if acc is None else acc + c
            if c.is_zero():
                out.pop(tgt, None)
            else:
                out[tgt] = c
        return AlgebraElement._make(v.field, v.heights, out)

    def apply_iterated(self, v: AlgebraElement) -> AlgebraElement:
        """p^s-fold bracket with y; independent of the closed form."""
        for _ in range(self.descriptor.heights.p ** self.s):
            v = self.descriptor.bracket(self._y, v)
        return v

    def apply_power(self, v: AlgebraElement, k: int) -> AlgebraElement:
        for _ in range(k):
            v = self.apply(v)
        return v


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


def jacobi_violations(desc: AlgebraDescriptor) -> list:
    """Jacobi identity over all strictly sorted basis monomial triples.

    Together with bilinearity and the anticommutativity check this covers
    every triple: permutations only flip the sign of the cyclic sum and
    repeated entries vanish identically.  For a < b < c the cyclic sum
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
    bad = []
    for a in range(n):
        sums: dict = {}  # (b, c, target) -> coefficient of the cyclic sum
        for b, (c1, m) in rows[a].items():  # [[a, b], c]
            if b > a:
                for c, (c2, m2) in rows[m].items():
                    if c > b:
                        sums[b, c, m2] = sums.get((b, c, m2), 0) + c1 * c2
        for m in column[a]:  # [[b, c], a]
            c2, m2 = rows[m][a]
            for b, c, c1 in into[m]:
                if b > a:
                    sums[b, c, m2] = sums.get((b, c, m2), 0) + c1 * c2
        for c in column[a]:  # [[c, a], b]
            if c > a:
                c1, m = rows[c][a]
                for b, (c2, m2) in rows[m].items():
                    if a < b < c:
                        sums[b, c, m2] = sums.get((b, c, m2), 0) + c1 * c2
        failing = {(b, c) for (b, c, _m2), v in sums.items() if v % p}
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

    The images D(basis[i]) are computed once, as integer vectors over the
    basis index.  For each a only the partners b that give some side a term
    are compared: an entry table[a][b], an entry table[k][b] with k in the
    support of Da, or an entry table[a][k] with k in the support of Db.
    """
    desc = deriv.descriptor
    p = desc.heights.p
    rows, basis, index = desc.table, desc.basis, desc._index
    images = []
    for m in basis:
        image = deriv.apply(desc.basis_element(m))
        images.append({index[t]: c.as_int() for t, c in image.terms.items()})
    preimages = [[] for _ in basis]  # preimages[k]: every b with k in the support of Db
    for b, image in enumerate(images):
        for k in image:
            preimages[k].append(b)
    bad = []
    for a, row in enumerate(rows):
        da = images[a]
        partners = set(row)
        for k in da:
            partners.update(rows[k])
        for k in row:
            partners.update(preimages[k])
        for b in sorted(partners):
            diff = {}
            hit = row.get(b)
            if hit is not None:
                c, t = hit
                for k, d in images[t].items():
                    diff[k] = c * d
            for k, d in da.items():
                hit = rows[k].get(b)
                if hit is not None:
                    diff[hit[1]] = diff.get(hit[1], 0) - d * hit[0]
            for k, d in images[b].items():
                hit = row.get(k)
                if hit is not None:
                    diff[hit[1]] = diff.get(hit[1], 0) - d * hit[0]
            if any(v % p for v in diff.values()):
                bad.append((basis[a], basis[b]))
    return bad


def derivation_power_violations(deriv: Derivation) -> list:
    """Family-specific power laws of D on every basis monomial.

    GradedHamiltonian with n1 = s+1: D^p = 0.  AlbertZassenhaus with
    n1 = s+1: D^p is diagonal with eigenvalue -j on y-exponent j+1, and
    consequently D^(p^2) = D^p.  Other (s, n1) carry no claimed power law,
    so the check is vacuous there.
    """
    desc = deriv.descriptor
    if not deriv.has_closed_form:
        return []
    p = desc.heights.p
    bad = []
    for m in desc.basis:
        v = desc.basis_element(m)
        dp = deriv.apply_power(v, p)
        if desc.family is Family.GRADED_HAMILTONIAN:
            if not dp.is_zero():
                bad.append((m, "D^p != 0"))
            continue
        expected = v.scale(-(m.j - 1))
        if dp != expected:
            bad.append((m, "D^p eigenvalue"))
        if deriv.apply_power(dp, p * p - p) != dp:
            bad.append((m, "D^(p^2) != D^p"))
    return bad


def realization_violations(deriv: Derivation) -> list:
    """Closed-form vs iterated-ad realization on every basis monomial."""
    if not deriv.has_closed_form:
        return []
    desc = deriv.descriptor
    bad = []
    for m in desc.basis:
        v = desc.basis_element(m)
        if deriv.apply(v) != deriv.apply_iterated(v):
            bad.append(m)
    return bad
