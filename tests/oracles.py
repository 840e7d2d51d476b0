"""Dense reference sweeps for the law checks of `thinlie.laws` and the
grading checks of `thinlie.switch`, and FieldElement references
for the coordinate kernels of `thinlie.dpalgebra`, `thinlie.liealg` and
`thinlie.laws`.

The sweeps visit every triple and every pair, with no sparsity argument, and
read the structure constants only through the public `bracket_mono`,
`bracket` and `Derivation.apply`.  The two table-law references,
`dense_antisymmetry_violations` and `dense_additive_violations`, read a
table in coordinate layers as `layered_bracket`, the bracket of each pair
summed over every layer.  The derivation references work on
elements: they apply D one step at a time (`apply_power`), and realize
(ad y)^(p^s) by bracketing with y p^s times.  `laguerre_series` is the
Laguerre series the same way, the reference for the package's series on
D's monomial map, and `dense_table_power` sums vectors where the package
follows one chain per source.  The sparse and integer
sweeps must return the same violation lists, in the same order.

`ordered_check_graded` is the sweep of `thinlie.switch.check_graded` over
every ordered pair of active labels, comparing each bracket with its
product-rule prediction c v_L as an element, or with zero when the rule
vanishes; the package's sweep, which compares terms, must return the same
strays and misses, in the same order.
`product_rule` predicts one pair at a time from Lucas binomials and field
arithmetic, the reference for the factored rule table the package builds.
`rule_layers` expands that table to dim x dim, one `RuleTable.rule` per
ordered pair, and `full_rules_certified` runs the generator certificate of
`switch._rules_certified` on the whole of it, with no class argument: the
reference for the certificate that checks the table laws once per label
class and per fibre only where the block or a placeholder enters.

The kernel references (`bracket`, `apply`, `scale`, `Echelon`) keep each
coefficient as one FieldElement, {monomial: FieldElement} with no zero
value, read from an element by `items`, and multiply in the field; the package keeps the F_p coordinates of
each coefficient and multiplies integers, so the two must agree on every
element.

`product` is the divided-power product of two elements, bilinear over
`mono_mul`.  The package has no product: `grading.build_closed_basis`
shifts the exponents of a generalized power instead of multiplying it by a
monomial, and `product` is the reference for that shift and for the group
law of `generalized_power`.

`falling_binomial` is the textbook C(alpha, i) for a field element alpha,
the reference for the switch's coefficients, which the package writes as
falling factorials by Wilson's theorem.
"""

import math

from thinlie import switch
from thinlie.dpalgebra import AlgebraElement, Heights, Monomial, SparseEchelon, accumulate
from thinlie.ffield import FieldElement, lucas_binomial
from thinlie.common import GradingCase, GradingSpec, Label
from thinlie.grading import GradedBasis
from thinlie.laws import (additive_violations, ads_are_derivations, antisymmetry_violations,
                          table_generators)
from thinlie.liealg import AlgebraDescriptor, Derivation, Family


def dense_anticommutativity_violations(desc: AlgebraDescriptor) -> list:
    """[u,v] = -[v,u] and [u,u] = 0 over all basis monomial pairs."""
    p = desc.heights.p
    bad = []
    basis = desc.basis
    for a in basis:
        if desc.bracket_mono(a, a) is not None:
            bad.append((a, a))
    for idx, a in enumerate(basis):
        for b in basis[idx + 1:]:
            ab = desc.bracket_mono(a, b)
            ba = desc.bracket_mono(b, a)
            if ab is None and ba is None:
                continue
            if (
                ab is None
                or ba is None
                or ab[1] != ba[1]
                or (ab[0] + ba[0]) % p != 0
            ):
                bad.append((a, b))
    return bad


def layered_bracket(rows: list, a: int, b: int) -> dict:
    """[e_a, e_b] of a table in coordinate layers, rows[r][a] = {b: (x, t)}
    for the t^r coordinate x of c in [e_a, e_b] = c e_t, as a dict
    {(t, r): x} read from every layer."""
    out = {}
    for r, layer in enumerate(rows):
        if b in layer[a]:
            x, t = layer[a][b]
            out[t, r] = x
    return out


def dense_antisymmetry_violations(rows: list, p: int) -> list:
    """[e_a, e_a] = 0, then [e_a, e_b] + [e_b, e_a] = 0 mod p for every pair
    a < b, over every pair of every layer of a table in coordinate layers."""
    n = len(rows[0])
    bad = [(a, a) for a in range(n) if layered_bracket(rows, a, a)]
    for a in range(n):
        for b in range(a + 1, n):
            total = layered_bracket(rows, a, b)
            for key, x in layered_bracket(rows, b, a).items():
                total[key] = total.get(key, 0) + x
            if any(x % p for x in total.values()):
                bad.append((a, b))
    return bad


def dense_additive_violations(rows: list, weight: list, modulus: int) -> list:
    """Every ordered pair (a, b) of a table in coordinate layers whose
    bracket has a term e_t with weight[t] != weight[a] + weight[b] mod
    modulus."""
    n = len(rows[0])
    return [(a, b) for a in range(n) for b in range(n)
            if any((weight[t] - weight[a] - weight[b]) % modulus
                   for t, _r in layered_bracket(rows, a, b))]


def dense_jacobi_violations(desc: AlgebraDescriptor) -> list:
    """Jacobi identity over all strictly sorted basis monomial triples."""
    p = desc.heights.p
    basis = desc.basis
    table = desc.bracket_mono
    bad = []

    def step(u, v, w, acc):
        uv = table(u, v)
        if uv is None:
            return
        c, m = uv
        mw = table(m, w)
        if mw is None:
            return
        c2, m2 = mw
        acc[m2] = (acc.get(m2, 0) + c * c2) % p

    n = len(basis)
    for ia in range(n):
        a = basis[ia]
        for ib in range(ia + 1, n):
            b = basis[ib]
            for ic in range(ib + 1, n):
                c = basis[ic]
                acc: dict = {}
                step(a, b, c, acc)
                step(b, c, a, acc)
                step(c, a, b, acc)
                if any(v % p for v in acc.values()):
                    bad.append((a, b, c))
    return bad


def element_leibniz_violations(deriv: Derivation) -> list:
    """D[u,v] = [Du,v] + [u,Dv] over all basis monomial pairs, on elements."""
    desc = deriv.descriptor
    bad = []
    elems = {m: desc.basis_element(m) for m in desc.basis}
    images = {m: deriv.apply(elems[m]) for m in desc.basis}
    for a in desc.basis:
        for b in desc.basis:
            lhs = deriv.apply(desc.bracket(elems[a], elems[b]))
            rhs = desc.bracket(images[a], elems[b]) + desc.bracket(elems[a], images[b])
            if lhs != rhs:
                bad.append((a, b))
    return bad


def apply_power(deriv: Derivation, v: AlgebraElement, k: int) -> AlgebraElement:
    """D^k v, applying D to the element k times."""
    for _ in range(k):
        v = deriv.apply(v)
    return v


def dense_table_power(table: dict, k: int, p: int, n: int) -> list:
    """The rows of table^k for each of the n basis indexes, as vectors
    {target: coefficient}, each step summed over every term of the vector
    before: the reference for `liealg.table_power`, which follows one chain
    per source of a monomial map {i: (c, target)}."""
    rows = [{table[i][1]: table[i][0]} if i in table else {} for i in range(n)]
    out = []
    for i in range(n):
        vec = {i: 1}
        for _ in range(k):
            vec = accumulate({}, ((t, c * d) for j, c in vec.items()
                                  for t, d in rows[j].items()), p)
        out.append(vec)
    return out


def laguerre_series(coeffs: list, deriv: Derivation, v: AlgebraElement) -> AlgebraElement:
    """sum_k coeffs[k] (D^k v) on elements: each power by `apply_power`,
    each term scaled as an element and added to the sum."""
    out = AlgebraElement.zero(v.field, v.heights)
    for k, c in enumerate(coeffs):
        out = out + apply_power(deriv, v, k).scale(c)
    return out


def element_derivation_power_violations(deriv: Derivation) -> list:
    """D^p = 0 (GH) or D^p = -j on y-exponent j+1 and D^(p^2) = D^p (AZ),
    applying D to elements p and p^2 times; vacuous without the closed form."""
    desc = deriv.descriptor
    if not deriv.has_closed_form:
        return []
    p = desc.heights.p
    bad = []
    for m in desc.basis:
        v = desc.basis_element(m)
        dp = apply_power(deriv, v, p)
        if desc.family is Family.GRADED_HAMILTONIAN:
            if not dp.is_zero():
                bad.append((m, "D^p != 0"))
            continue
        if dp != v.scale(-(m.j - 1)):
            bad.append((m, "D^p eigenvalue"))
        if apply_power(deriv, dp, p * p - p) != dp:
            bad.append((m, "D^(p^2) != D^p"))
    return bad


def element_realization_violations(deriv: Derivation) -> list:
    """D against p^s brackets with y on the left, on every basis element;
    vacuous without the closed form."""
    desc = deriv.descriptor
    if not deriv.has_closed_form:
        return []
    y = desc.basis_element(Monomial(0, 1))
    bad = []
    for m in desc.basis:
        v = desc.basis_element(m)
        w = v
        for _ in range(desc.heights.p ** deriv.s):
            w = desc.bracket(y, w)
        if deriv.apply(v) != w:
            bad.append(m)
    return bad


def dense_monomial_grading_violations(desc: AlgebraDescriptor, spec: GradingSpec) -> list:
    """Monomial pairs whose bracket leaves the degree class of the degree sum."""
    deg = {m: spec.degree_of_monomial(m) for m in desc.basis}
    violations = []
    for a in desc.basis:
        for b in desc.basis:
            out = desc.bracket_mono(a, b)
            if out is None or out[0] % spec.p == 0:
                continue
            if deg[out[1]] != (deg[a] + deg[b]) % spec.N:
                violations.append((a, b))
    return violations


def product_rule(basis: GradedBasis, cfg):
    """The closed product rule of `switch._product_rule`, one ordered pair
    of labels at a time: rule(la, lb) = (c, L) for [v_la, v_lb] = c v_L,
    c by its m F_p coordinates.  L is None when c = 0, and when the target
    falls outside the label range (then c must be 0: else no prediction).

    Off k = h = -1, c = C(k+h+1,h)C(j+l+1,j) - C(k+h+1,k)C(j+l+1,l) at
    L = (j+l, k+h, a+b); on k = h = -1, c = sigma (C(j+l+1,j) beta -
    C(j+l+1,l) alpha) at L = (j+l, p^s-2, a+b-1), alpha and beta the
    exponents of the two closed forms.  Each binomial comes from
    `lucas_binomial` and each coefficient from FieldElement arithmetic.
    """
    spec, field = basis.spec, basis.field
    p, q, ps = field.p, spec.q, spec.step

    def exponent(j, a):
        if spec.case is GradingCase.BIG_FIELD:
            return -field.element(j) * cfg.pi + a
        return field.element(a)

    def rule(la, lb):
        (j, k, a), (l, h, b) = la, lb
        cj = lucas_binomial(j + l + 1, j, p)
        cl = lucas_binomial(j + l + 1, l, p)
        if k == h == -1:
            c = cfg.sigma * (exponent(l, b) * cj - exponent(j, a) * cl)
            kk, aa = ps - 2, a + b - 1
        else:
            x = (lucas_binomial(k + h + 1, h, p) * cj - lucas_binomial(k + h + 1, k, p) * cl)
            c = field.element(x % p)
            kk, aa = k + h, a + b
        if c.is_zero() or not (-1 <= j + l <= q - 2 and -1 <= kk <= ps - 2):
            return c.coeffs, None
        return c.coeffs, Label(j + l, kk, aa % p)
    return rule


def rule_layers(table) -> list:
    """The rule table T' of a `switch.RuleTable` expanded to dim x dim,
    one `rule` call per ordered pair of active labels: the coordinate
    layers rows[r][a] = {b: (x, t)} for each x != 0, the t^r coordinate of
    c in rule(a, b) = (c, t) with a target t."""
    n, m = len(table.active), len(table.block)
    rows = [[{} for _ in range(n)] for _ in range(m)]
    for a in range(n):
        for b in range(n):
            c, t = table.rule(a, b)
            if t is None:
                continue
            for layer, x in zip(rows, c):
                if x:
                    layer[a][b] = (x, t)
    return rows


def full_rules_certified(desc: AlgebraDescriptor, basis: GradedBasis, table) -> bool:
    """The generator certificate of `switch._rules_certified`, with every
    table law checked on all of T' as `rule_layers` expands it:
    antisymmetry and additive degrees over every entry, an empty Jacobi
    verdict of the algebra, generators by the same two walks, ad_g a
    derivation on every pair b > a, and the brackets of the generators
    against their predictions."""
    rows = rule_layers(table)
    field, labels = basis.field, table.active
    deg = [basis.degrees[lab] for lab in labels]
    if (antisymmetry_violations(rows, field.p)
            or additive_violations(rows, deg, basis.spec.N) or desc.jacobi):
        return False
    gens = table_generators(rows, sorted(range(len(deg)), key=lambda a: deg[a] != 1))
    if len(gens) > 2:
        again = table_generators(rows, sorted(
            range(len(deg)), key=lambda a: (deg[a] != 1, -labels[a].j - labels[a].k)))
        gens = min(gens, again, key=len)
    if not ads_are_derivations(rows, gens, field):
        return False
    vectors = [basis.vectors[lab] for lab in labels]
    for g in gens:
        for b, vb in enumerate(vectors):
            c, t = table.rule(g, b)
            want = vectors[t].scale(field.element(c)) if t is not None else desc.zero()
            if desc.bracket(vectors[g], vb) != want:
                return False
    return True


def ordered_check_graded(desc: AlgebraDescriptor, basis: GradedBasis, cfg=None) -> tuple[list, list]:
    """(strays, misses) of `check_graded`, one bracket per ordered pair,
    with the predictions read from the table of `switch._product_rule`."""
    spec, field = basis.spec, basis.field
    table = switch._product_rule(basis, cfg) if cfg is not None else None
    by_deg: dict = {}
    active = basis.active_labels
    vectors, degrees = basis.vectors, basis.degrees
    for lab in active:
        ech = by_deg.setdefault(degrees[lab], SparseEchelon(field, spec.heights))
        ech.insert(vectors[lab])
    strays, misses = [], []
    for ia, la in enumerate(active):
        for ib, lb in enumerate(active):
            w = desc.bracket(vectors[la], vectors[lb])
            target = (degrees[la] + degrees[lb]) % spec.N
            if table is not None:
                c, t = table.rule(ia, ib)
                lab = active[t] if t is not None else None
                predicted = vectors[lab].scale(field.element(c)) if lab is not None else desc.zero()
                if w != predicted:
                    misses.append((la, lb))
                elif lab is not None and degrees[lab] == target:
                    continue
            if w.is_zero():
                continue
            ech = by_deg.get(target)
            stray = ech.reduce(w) if ech is not None else w
            if not stray.is_zero():
                strays.append((la, lb, stray))
    return strays, misses


def items(v: AlgebraElement) -> list:
    """(monomial, FieldElement) pairs of an element, in monomial order."""
    return [(mono, v.coeff(mono)) for mono in v.support()]


def _add(terms: dict, mono, c: FieldElement):
    c = terms[mono] + c if mono in terms else c
    if c.is_zero():
        terms.pop(mono, None)
    else:
        terms[mono] = c


def bracket(desc: AlgebraDescriptor, u: AlgebraElement, v: AlgebraElement) -> dict:
    """[u, v], term by term over `bracket_mono`, with FieldElement products."""
    terms: dict = {}
    for a, x in items(u):
        for b, y in items(v):
            hit = desc.bracket_mono(a, b)
            if hit is not None:
                _add(terms, hit[1], x * y * hit[0])
    return terms


def apply(deriv: Derivation, v: AlgebraElement) -> dict:
    """D v from the entries of the derivation's monomial map, with
    FieldElement products."""
    desc = deriv.descriptor
    terms: dict = {}
    for a, x in items(v):
        hit = deriv.table.get(desc.basis.index(a))
        if hit is not None:
            _add(terms, desc.basis[hit[1]], x * hit[0])
    return terms


def scale(v: AlgebraElement, c: FieldElement) -> dict:
    return {m: x * c for m, x in items(v) if not (x * c).is_zero()}


class Echelon:
    """`SparseEchelon` on {monomial: FieldElement} rows, by the same steps:
    reduce clears leading pivots one at a time; insert scales the reduced
    row to a unit lead and stores it, leaving the older rows as they are."""

    def __init__(self):
        self.rows: dict = {}

    def reduce(self, v) -> dict:
        terms = dict(items(v)) if isinstance(v, AlgebraElement) else dict(v)
        while terms and (lead := min(terms)) in self.rows:
            c = -terms[lead]
            for m, x in self.rows[lead].items():
                _add(terms, m, c * x)
        return terms

    def insert(self, v) -> bool:
        terms = self.reduce(v)
        if not terms:
            return False
        lead = min(terms)
        inv = terms[lead].inverse()
        self.rows[lead] = {m: x * inv for m, x in terms.items()}
        return True


def mono_mul(h: Heights, a: Monomial, b: Monomial):
    """Product of two monomials: (coefficient mod p, monomial) or None if zero.

    Exponent overflow forces the coefficient to vanish mod p (a base-p
    carry); both facts are checked against each other.
    """
    p = h.p
    i, j = a.i + b.i, a.j + b.j
    c = lucas_binomial(i, a.i, p) * lucas_binomial(j, a.j, p) % p
    if i >= h.xbound or j >= h.ybound:
        if c != 0:
            raise ArithmeticError(
                f"overflowing product {a} * {b} has nonzero coefficient {c}")
        return None
    if c == 0:
        return None
    return c, Monomial(i, j)


def product(u: AlgebraElement, v: AlgebraElement) -> AlgebraElement:
    """The divided-power product u v, term by term over `mono_mul`, with
    FieldElement products."""
    terms: dict = {}
    for a, x in items(u):
        for b, y in items(v):
            hit = mono_mul(u.heights, a, b)
            if hit is not None:
                _add(terms, hit[1], x * y * hit[0])
    return AlgebraElement(u.field, u.heights, terms)


def falling_binomial(alpha: FieldElement, i: int) -> FieldElement:
    """C(alpha, i) = alpha(alpha-1)...(alpha-i+1)/i! for a field element alpha.

    Needs 0 <= i < p so that i! is invertible.
    """
    params = alpha.params
    if not 0 <= i < params.p:
        raise ValueError(f"falling binomial needs 0 <= i < p, got i={i}")
    num = params.one()
    for r in range(i):
        num = num * (alpha - r)
    return num * params.element(pow(math.factorial(i), -1, params.p))
