"""The laws of structure-constant tables, checked exhaustively.

The law checks sweep the table of `liealg` and its derivation D sparsely.
One row-wise kernel, `derivation_defects`, sums the defects of a list of
derivations on the rows it is given, in one sweep of those rows, and
serves two laws: Leibniz for D, and the Jacobi certificate: on an
anticommutative table Jacobi holds iff ad_g is a derivation for each g of
a few monomials that generate the algebra, and one kernel pass sums every
such ad_g at once.  Only when the certificate fails does the sweep over
chained triples list the failing triples.  The same subalgebra argument
decides Leibniz once the table is a Lie algebra: it holds iff it holds on
the generator rows, and only a failure there sums every row, to list the
failing pairs.  The other laws of D, its power law and its realization as
(ad y)^(p^s), walk its monomial map from every source in O(n p) and
O(s n p) dict reads, and read no verdict.  Each entry-wise law is one
kernel too: `antisymmetry_violations`, and `additive_violations` (degrees
add along entries: a grading).  The kernels and the generator walk take a
table over F_{p^m} as m integer layers, one per power of t, so `switch`
runs them on the switched product rules too; an integer table is the
one-layer case.

Only the commands that check laws load this module: `verify`, and the
certificate of `switch`.
"""

from __future__ import annotations

from .dpalgebra import Monomial, accumulate, fold
from .ffield import FieldParams
from .liealg import (AlgebraDescriptor, Derivation, Family, iterated_table, poisson_coeff,
                     table_power)

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
