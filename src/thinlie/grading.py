"""Cyclic gradings of the two algebra families and grading switching.

Four grading cases are supported.  The two pre-switch cases grade the
monomial basis directly; the two switched cases attach vectors to triples
(j, k, a) with j in [-1, q-2], k in [-1, p^s-2], a in [0, p-1], where the
label corresponds to the source monomial x^(a p^s + k + 1) y^(j + 1).
Degrees live in Z/N.  Switching replaces each monomial by a truncated
Laguerre series of a nilpotent-or-semisimple derivation applied to it; the
closed forms of the switched bases are generalized powers
(1 + sigma x^(p^s))^alpha times a monomial, and the two constructions agree
up to recorded scalars.  The derivation is a monomial map (see `liealg`),
so D^p, D^(p^2) and each series follow one chain of entries per monomial;
the closed product rules are the algebra's own Poisson determinants, read
from the per-axis factors of its structure constants.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .common import GradingCase, GradingSpec, Label
from .common import monomial_grading_violations  # noqa: F401  (perfbench's tracer looks it up here)
from .dpalgebra import AlgebraElement, Monomial, SparseEchelon, accumulate, fold
from .dpalgebra import generalized_power, parse_element
from .ffield import FieldElement, FieldParams, falling_factorial
from .liealg import (AlgebraDescriptor, Derivation, additive_violations, ads_are_derivations,
                     antisymmetry_violations, axis_factors, table_generators, table_power)


class SwitchConfig:
    """Switching parameters: sigma, pi and the derivation step s.

    lam = sigma^(-1) scales the derivation inside each Laguerre series.  The
    compatibility (pi^p - pi) sigma^p = 1 is demanded only on the eigenvalue
    route (checked there); pi = 0 is the documented degenerate choice and
    must be opted into explicitly.
    """

    def __init__(self, field: FieldParams, sigma: FieldElement, pi: FieldElement,
                 s: int, allow_zero_pi: bool = False):
        self.field = field
        self.sigma = field.element(sigma)
        self.pi = field.element(pi)
        self.s = s
        self.allow_zero_pi = allow_zero_pi
        if self.sigma.is_zero():
            raise ValueError("sigma must be nonzero")
        if self.s < 0:
            raise ValueError("s must be >= 0")
        if self.pi.is_zero() and not self.allow_zero_pi:
            raise ValueError(
                "pi = 0 is the degenerate negative control; pass allow_zero_pi=True"
            )

    @property
    def lam(self) -> FieldElement:
        return self.sigma.inverse()

    def eigen_compatible(self) -> bool:
        p = self.field.p
        return self.pi ** p - self.pi == self.sigma ** (-p)


class GradedBasis:
    """Vectors, degrees and closed-form scalars indexed by labels.

    Placeholder labels carry the zero vector and a zero scalar; every other
    scalar is the factor relating the stored vector to the raw switching
    output for the same label.
    """

    def __init__(self, spec: GradingSpec, field: FieldParams, labels: list,
                 vectors: dict, degrees: dict, scalars: dict):
        self.spec = spec
        self.field = field
        self.labels = labels
        self.vectors = vectors
        self.degrees = degrees
        self.scalars = scalars

    @property
    def active_labels(self) -> list:
        return [lab for lab in self.labels if not self.vectors[lab].is_zero()]

    def validate_rank(self, descriptor: AlgebraDescriptor):
        """ValueError unless the active vectors are dim many and independent:
        each is inserted into one echelon (see `SparseEchelon`), and the
        first whose insert does not grow the rank is dependent."""
        active = self.active_labels
        if len(active) != descriptor.dim:
            raise ValueError(
                f"basis has {len(active)} nonzero vectors, expected {descriptor.dim}"
            )
        ech = SparseEchelon(self.field, self.spec.heights)
        for lab in active:
            if not ech.insert(self.vectors[lab]):
                raise ValueError(f"basis vector at label {lab} is dependent")

    def serialize(self) -> str:
        lines = []
        for lab in self.labels:
            lines.append(
                f"{lab.text()} | {self.degrees[lab]} | "
                f"{self.vectors[lab].text()} | {self.scalars[lab]}"
            )
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, descriptor: AlgebraDescriptor, spec: GradingSpec, text: str) -> "GradedBasis":
        field = descriptor.field
        labels, vectors, degrees, scalars = [], {}, {}, {}
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            mt = _BASIS_LINE_RE.match(line)
            if not mt:
                raise ValueError(f"bad graded-basis line {line!r}")
            lab = Label(int(mt.group(1)), int(mt.group(2)), int(mt.group(3)))
            labels.append(lab)
            degrees[lab] = int(mt.group(4))
            vectors[lab] = parse_element(field, descriptor.heights, mt.group(5))
            scalars[lab] = field.parse_element(mt.group(6))
        return cls(spec, field, labels, vectors, degrees, scalars)


_BASIS_LINE_RE = re.compile(
    r"^\((-?\d+),(-?\d+),(-?\d+)\) \| (\d+) \| (.*) \| ([^|]*)$"
)


def laguerre_apply(alpha, deriv: Derivation, v: AlgebraElement, scale=None) -> AlgebraElement:
    """Degree-(p-1) generalized Laguerre series of the derivation, applied to v.

    Computes sum_{k=0}^{p-1} C(alpha + p - 1, p - 1 - k) (-1)^k / k! times
    (scale*D)^k v.  With alpha = 0 the coefficients collapse to 1/k! and
    the operator is the truncated exponential of scale*D.  The coefficients
    come from `_laguerre_coefficients`, which `switch_grading` calls once
    per eigenvalue of D^p rather than once per monomial.
    """
    field = v.field
    lam = field.one() if scale is None else field.element(scale)
    return _laguerre_series(_laguerre_coefficients(field.element(alpha), lam), deriv, v)


def _laguerre_coefficients(alpha: FieldElement, lam: FieldElement) -> list:
    """C(alpha + p - 1, p - 1 - k) (-1)^k / k! lam^k for k < p: the
    coefficient of D^k in the Laguerre series of lam D at alpha.

    That is -(alpha + p - 1)_(p-1-k) lam^k, a falling factorial, since
    k! (p-1-k)! = -(-1)^k mod p by Wilson's theorem."""
    field = alpha.params
    p = field.p
    coeffs, lam_k = [], field.one()
    for k in range(p):
        coeffs.append(-falling_factorial(alpha + (p - 1), p - 1 - k) * lam_k)
        lam_k = lam_k * lam
    return coeffs


def _laguerre_series(coeffs: list, deriv: Derivation, v: AlgebraElement) -> AlgebraElement:
    """sum_k coeffs[k] D^k v on D's monomial map.

    D^k v is kept as {(basis index, r): coordinate of t^r}, each power one
    pass over the map's entries at the one before; coeffs[k] times it lands
    on powers t^(r + s) in one coordinate dict, folded by the modulus once
    at the end.  No algebra element is built until the sum."""
    desc, field = deriv.descriptor, v.field
    p, table, basis = field.p, deriv.table, desc.basis
    w = {(i, r): x for i, coords in desc._indexed(v) for r, x in coords}
    terms = {}
    for k, c in enumerate(coeffs):
        if k:
            w = accumulate({}, (((hit[1], r), x * hit[0]) for (i, r), x in w.items()
                                if (hit := table.get(i)) is not None), p)
        if not w:
            break
        coords = [(s, y) for s, y in enumerate(c.coeffs) if y]
        accumulate(terms, (((i, r + s), x * y) for (i, r), x in w.items()
                           for s, y in coords), p)
    fold(terms, field)
    return AlgebraElement._make(field, v.heights, {
        (basis[i], r): x for (i, r), x in terms.items()})


def build_closed_basis(descriptor: AlgebraDescriptor, spec: GradingSpec,
                       cfg: SwitchConfig | None = None) -> GradedBasis:
    """Closed-form graded basis for any of the four cases.

    Pre-switch cases attach plain monomials to labels.  The switched cases
    attach (1 + sigma x^(p^s))^alpha x^(k+1) y^(j+1), with alpha = -j pi + a
    over the big field and alpha = a over the prime field (`_label_exponent`),
    recording the scalar that relates each vector to the raw Laguerre
    switching output.  alpha, the scalar and the power
    depend on (j, a) only, so each is computed once per (j, a), and each
    label's vector is that series shifted: x^(i p^s) goes to
    x^(i p^s + k + 1) y^(j + 1) with its coefficient, the product
    coefficient C(i p^s + k + 1, k + 1) being 1 by Lucas as k + 1 < p^s.
    Excluded monomials of the GradedHamiltonian family become zero
    placeholders (and constant terms are projected away).
    """
    field = descriptor.field
    h = descriptor.heights
    p = field.p
    ps = spec.step
    labels = list(spec.labels())
    vectors, scalars = {}, {}
    if not spec.case.is_switched:
        for lab in labels:
            mono = spec.monomial_of_label(lab)
            if mono in descriptor.excluded:
                vec = descriptor.zero()
            else:
                vec = descriptor.basis_element(mono)
            scalars[lab] = field.zero() if vec.is_zero() else field.one()
            vectors[lab] = vec
    else:
        if cfg is None:
            raise ValueError("switched cases need a SwitchConfig")
        top_label = Label(spec.q - 2, ps - 2, p - 1)
        for j in range(-1, spec.q - 1):
            for a in range(p):
                alpha = _label_exponent(spec, cfg, j, a)
                scalar = _closed_scalar(cfg, j, a, alpha)
                series = generalized_power(field, h, cfg.sigma, alpha, spec.s).terms
                for k in range(-1, ps - 1):
                    lab = Label(j, k, a)
                    if descriptor.excluded and lab == top_label:
                        # the closed form would need the excluded top monomial
                        vec = descriptor.zero()
                    else:
                        vec = descriptor.project(AlgebraElement._make(field, h, {
                            (Monomial(mono.i + k + 1, j + 1), r): c
                            for (mono, r), c in series.items()}))
                    vectors[lab] = vec
                    scalars[lab] = field.zero() if vec.is_zero() else scalar
    degrees = {lab: spec.degree_of_label(lab) for lab in labels}
    basis = GradedBasis(spec, field, labels, vectors, degrees, scalars)
    basis.validate_rank(descriptor)
    return basis


def _label_exponent(spec: GradingSpec, cfg: SwitchConfig, j: int, a: int) -> FieldElement:
    """alpha(j, a), the exponent of the closed form at the labels (j, k, a):
    -j pi + a over the big field, a over the prime field."""
    if spec.case is GradingCase.BIG_FIELD:
        return -cfg.field.element(j) * cfg.pi + a
    return cfg.field.element(a)


def _closed_scalar(cfg: SwitchConfig, j: int, a: int, alpha: FieldElement) -> FieldElement:
    """a! sigma^a C(alpha, a) / C(alpha - a + p - 1, p - 1): the closed
    vector at (j, k, a) over the raw one, for every k.

    In falling factorials that is -(alpha)_a sigma^a / (alpha - a + p - 1)_(p-1),
    as (p - 1)! = -1 (Wilson).  Over the prime field alpha = a, and it is
    a! sigma^a."""
    p = cfg.field.p
    den = falling_factorial(alpha - a + (p - 1), p - 1)
    if den.is_zero():
        raise ValueError(
            f"closed-basis scalar undefined at j={j}: C(-j pi + p - 1, p - 1) = 0"
        )
    return -falling_factorial(alpha, a) * cfg.sigma ** a / den


def switch_hypotheses(descriptor: AlgebraDescriptor, spec: GradingSpec,
                      deriv: Derivation, cfg: SwitchConfig) -> dict | None:
    """Verify the switching hypotheses on the derivation's monomial map.

    The derivation is graded of a single degree d with N | pd, and either
    D^p = 0 (truncated exponential route) or D^(p^2) = lam^((p-1)p) D^p
    with D^p diagonal on monomials and (pi^p - pi) sigma^p = 1 (Laguerre
    route, one operator per eigenvalue label).  A failure raises
    ValueError("hypothesis failure: ...") naming what broke.  Returns the
    Laguerre parameter of each monomial, or None for a zero derivation.
    """
    if spec.case.is_switched:
        raise ValueError("switching starts from a pre-switch monomial grading")
    if spec.heights.n1 != spec.s + 1:
        raise ValueError("switching needs n1 = s + 1")
    field = descriptor.field
    p = field.p
    monos = descriptor.basis
    deg = [spec.degree_of_monomial(m) for m in monos]

    d = None
    for i, (_c, k) in sorted(deriv.table.items()):
        dd = (deg[k] - deg[i]) % spec.N
        if d is None:
            d = dd
        elif dd != d:
            raise ValueError(f"hypothesis failure: derivation is not graded of one "
                             f"degree: it moves {monos[i]} by {dd}, earlier monomials by {d}")
    if d is None:
        return None
    if (p * d) % spec.N != 0:
        raise ValueError(f"hypothesis failure: N = {spec.N} does not divide p*d = {p * d}")

    dp = table_power(deriv.table, p, p)
    if not dp:
        return {m: field.zero() for m in monos}
    if not cfg.eigen_compatible():
        raise ValueError("hypothesis failure: (pi^p - pi) sigma^p != 1")
    factor = cfg.lam ** ((p - 1) * p)
    scaled = [factor * c for c in range(p)]  # lam^((p-1)p) c for the entries c of D^p
    alpha_of = [field.element(c) * cfg.pi for c in range(p)]
    dp2 = table_power(dp, p, p)
    alphas = dict.fromkeys(monos, alpha_of[0])
    for i, (c, k) in dp.items():
        m = monos[i]
        c2, k2 = dp2.get(i, (0, k))  # a chain that dies is zero in D^(p^2)
        if scaled[c] != field.element(c2) or k2 != k:
            raise ValueError(f"hypothesis failure: D^(p^2) != lam^((p-1)p) D^p on {m}")
        if k != i:
            raise ValueError(f"hypothesis failure: D^p is not diagonal on the monomial "
                             f"basis: D^p {m} has support {[monos[k]]}")
        # D^p is c in F_p on m.  The series runs in lam D, whose p-th
        # power is lam^p c on m, and the Laguerre parameter of that
        # eigenvalue solves alpha^p - alpha = lam^p c: alpha = c pi does,
        # as c^p = c and pi^p - pi = sigma^(-p) = lam^p.  For the D of
        # AlbertZassenhaus, c = -j on y^(j+1), so alpha is -j pi, the
        # closed form's exponent at a = 0, for every sigma.  graded_raw
        # sweeps this basis without reading the closed forms, so its
        # passing is independent evidence.
        alphas[m] = alpha_of[c]
    return alphas


def switch_grading(descriptor: AlgebraDescriptor, spec: GradingSpec,
                   deriv: Derivation, cfg: SwitchConfig) -> GradedBasis:
    """Produce the switched graded basis from a pre-switch monomial grading.

    Verifies the switching hypotheses first (`switch_hypotheses`), then
    applies one Laguerre series per monomial.  The series' coefficients
    depend on the monomial only through its eigenvalue under D^p, so they
    are computed once per eigenvalue, at most p times.  A zero derivation
    returns the original grading.

    The switched basis's rank is not checked here: `switch_checks` derives
    it from the closed basis through the scalar link, or checks it when
    the link fails.
    """
    alphas = switch_hypotheses(descriptor, spec, deriv, cfg)
    if alphas is None:
        # zero derivation: identity switching
        return build_closed_basis(descriptor, spec, None)
    field = descriptor.field
    out_spec = spec.switched()
    labels = list(out_spec.labels())
    lam = cfg.lam
    series = {}  # Laguerre coefficients by parameter, one per eigenvalue of D^p
    vectors, scalars = {}, {}
    for lab in labels:
        mono = out_spec.monomial_of_label(lab)
        if mono in descriptor.excluded:
            vectors[lab], scalars[lab] = descriptor.zero(), field.zero()
        else:
            alpha = alphas[mono]
            coeffs = series.get(alpha)
            if coeffs is None:
                coeffs = series[alpha] = _laguerre_coefficients(alpha, lam)
            basis_vector = AlgebraElement._make(field, spec.heights, {(mono, 0): 1})
            vectors[lab] = _laguerre_series(coeffs, deriv, basis_vector)
            scalars[lab] = field.one()
    degrees = {lab: out_spec.degree_of_label(lab) for lab in labels}
    return GradedBasis(out_spec, field, labels, vectors, degrees, scalars)


def check_graded(descriptor: AlgebraDescriptor, basis: GradedBasis,
                 cfg: SwitchConfig | None = None) -> tuple[list, list]:
    """Grading and product-table violations of the brackets of active labels.

    Grading: a nonzero bracket is reduced against the echelon of the degree
    class of the degree sum, and a nonzero remainder (the stray) is recorded
    as (label, label, stray); none means the basis realizes a grading.
    Product tables, only when cfg is given: a bracket that differs from its
    prediction c v_L in the rule table of `_product_rule` is recorded as
    (label, label).  Returns (strays, misses), both in the order of the
    ordered pairs of active labels.

    When cfg is given and the table is anticommutative, `_rules_certified`
    decides whether every pair obeys its rule with L of the degree sum, and
    then both lists are empty.  Only when it fails, or without cfg, does
    `_pair_sweep` bracket every ordered pair to list the violations.  Both
    read the one rule table.
    """
    table = _product_rule(basis, cfg) if cfg is not None else None
    if (table is not None and not descriptor.anticommutativity
            and _rules_certified(descriptor, basis, table)):
        return [], []
    return _pair_sweep(descriptor, basis, table)


class RuleTable(NamedTuple):
    """The closed product rules T' on the active labels, by active index,
    in two parts: the class table C and the block.

    A label (j, k, a) lies in the class (j, k), numbered c = (j + 1) p^s +
    k + 1, so that k = -1 iff c = 0 mod p^s, at the fibre a in Z/p.
    place[i] = (c, a) for the active label i, and fibres[c][a][b] is the
    active index of the label of class c at the fibre a + b mod p, None at
    a zero placeholder.

    Toral switching has made x^(p^s) a torus eigenvector, so off the block
    k = h = -1 a rule depends on the fibres only through their sum:
    [v_(A, a), v_(B, b)] = x v_(A + B, a + b), x in F_p the Poisson
    determinant of the classes.  C holds those rules once per pair of
    classes, classes[A] = {B: (x, E)} for x != 0 with E = A + B.  It is
    the table of the Poisson bracket on the divided powers x^(k+1) y^(j+1)
    with k + 1 < p^s, a Lie algebra, as a sum k + h + 1 >= p^s carries a
    digit and its binomials vanish mod p.  Off the block, T' is the current algebra C (x) F_p[Z/p]
    of C and the group algebra of the fibres, less its entries onto
    placeholders.  The block holds the pairs of two labels at k = -1, whose
    c = sigma (Y1 beta - Y0 alpha) lies in F_q and depends on both fibres,
    in coordinate layers: block[r][a] = {b: (x, t)} for the t^r coordinate
    x != 0 of c in [v_a, v_b] = c v_t, t at k = p^s - 2 and the fibre
    a + b - 1.  No pair lies in both parts.

    A pair with c = 0, or whose target is a zero placeholder, is predicted
    to vanish.

    No dim x dim copy of T' is kept: `_rules_certified` expands the rows
    of T' for the kernels that read them, the generator walk and the
    per-fibre derivation pass, and `rule` reads one pair from the two
    parts.
    """

    active: list
    place: list
    fibres: list
    classes: list
    block: list

    def rule(self, a: int, b: int) -> tuple:
        """(c, t) for [v_a, v_b] = c v_t, c by its m coordinates; (0, ..., 0)
        and None when the bracket is predicted to vanish."""
        c, t = [], None
        for layer in self.block:
            x, t = layer[a].get(b, (0, t))  # every layer names the same t
            c.append(x)
        (ca, fa), (cb, fb) = self.place[a], self.place[b]
        x, e = self.classes[ca].get(cb, (0, 0))
        if x:  # the t^0 coordinate of c, on a pair with no block entry
            c[0], t = x, self.fibres[e][fa][fb]
        if t is None:
            return (0,) * len(c), None
        return tuple(c), t


def _rules_certified(descriptor: AlgebraDescriptor, basis: GradedBasis,
                     table: RuleTable) -> bool:
    """Whether every bracket of two active basis vectors is c v_L, for the
    rule table's (c, L) with L of the degree sum, by a generator certificate.

    Let T be the structure-constant table, T' the rule table on the active
    labels and phi(e_L) = v_L.  The a with phi[a,x]' = [phi a, phi x] for
    every x and ad_a a derivation of T' form a subalgebra of T' when T'
    is anticommutative and T is a Lie algebra: expand [[a,b]',x]' by
    ad_a, apply phi through a and b, and recombine by Jacobi in T (the
    argument of `liealg.jacobi_violations`, Jacobson, Lie Algebras).  So
    the rules hold on every pair once they hold on any generating set of
    T'.

    The laws of T' are checked on the two parts of `RuleTable`.  Off the
    block, T' is the current algebra C (x) F_p[Z/p], and in a current
    algebra C (x) A, A commutative and associative, [u (x) f, v (x) g] =
    [u, v] (x) fg: antisymmetry, the grading and the derivation identity
    of ad_(u (x) f) follow from those of C, fibre sum by fibre sum
    (Jacobson, Lie Algebras).  The argument covers the pairs whose
    brackets all stay off the block and off the placeholders; the others
    are summed per fibre.  Four exact steps, in order, any failure
    returning False:

    1. one test of the table laws: no `antisymmetry_violations` of C or of
       the block, as a pair of T' is a block pair iff its mirror is, and
       off the block the mirror reads the mirror class entry at the same
       fibre sum; degrees affine in the fibre, deg(J, a) = deg(J, 0) +
       a (1 - q) p^s mod N, and no `additive_violations` of C on the class
       degrees deg(J, 0) or of the block on the label degrees, which
       grades T' as p (1 - q) p^s = -N = 0 mod N; and T, anticommutative
       by the caller, keeps an empty Jacobi verdict, which its certificate
       decides in the switch's other kernel pass;
    2. generators of T' by `table_generators` on the rows of T', expanded
       from the block and C, from the degree-1 labels first and then
       every active label in index order, so this step cannot fail: X and
       Y alone where they generate T', as they do on every admissible
       switch with both of them active, and otherwise each label they do
       not reach, in order, as one more generator.  When that walk takes
       more than two, a second walk takes the degree-1 labels first and
       then j + k descending, and the shorter list is kept: any generating
       set serves, and each generator costs a derivation check and dim
       brackets;
    3. ad_g is a derivation of T' for each generator g, by two passes of
       the derivation kernel (`ads_are_derivations`).  The defect of ad_g
       at (a, b) is [g,[a,b]] - [[g,a],b] - [a,[g,b]], three chains of two
       brackets.  A pair is a block pair only if both labels have k = -1,
       and a class entry of k and h lands on k + h.  So when neither a nor
       b has k = -1, no bracket of the three chains is a block pair: [a,b]
       lands on k >= 0, and [g,a], [g,b] each meet b or a next.  Every
       chain is then a chain of C at the fibre sum, and the defect is x v,
       x the defect of ad_G on C at the classes (A, B), G the class of g,
       unless a middle bracket [a,b], [g,a] or [g,b] lands on a
       placeholder, whose entries T' drops.  By the antisymmetry of C
       that needs the class row of A or of B to have an entry onto a class
       with a placeholder.  So the first pass runs once on C, with ad_G
       the row of G, and the second, per fibre on the rows of T', sums the
       defects of the labels at k = -1 and of the labels whose class row
       meets a placeholder, each against every b: the defect is
       antisymmetric in (a, b) on an anticommutative table, so a pair with
       only b among them is met as (b, a).  Every other pair is clean, and
       its defect vanishes with those of C.  Conversely a defect of C
       shows in T' wherever no placeholder hides it: a chain through the
       block lands p^s higher in k than the chains of C, on another label,
       so it never cancels one of them.  At s = 0 every label has k = -1:
       C is empty and T' is the block, so the second pass, which would
       visit every row against every b, is instead the one pass over the
       pairs b > a of T' that the certificate took before; s = 0 gains
       nothing and loses nothing;
    4. [v_g, v_x] = c v_L for each generator g and active x: 2 x dim
       brackets when X and Y generate.

    No echelon is built: a bracket c v_L with L of the degree sum lies in
    the span of that degree's vectors, so it has no stray.
    """
    field, N, ps = basis.field, basis.spec.N, basis.spec.step
    classes, place, fibres = table.classes, table.place, table.fibres
    deg = [basis.degrees[lab] for lab in table.active]
    # (class, deg(J, 0)) of each label, as deg(j, k, a + 1) - deg(j, k, a) = -N / p mod N
    base = {(c, (d + a * N // field.p) % N) for (c, a), d in zip(place, deg)}
    cdeg = dict(base)
    if (len(cdeg) < len(base) or antisymmetry_violations([classes, *table.block], field.p)
            or additive_violations([classes], cdeg, N) or additive_violations(table.block, deg, N)
            or descriptor.jacobi):
        return False
    # the rows of T' in coordinate layers: the block, each row of layer 0 joined by
    # its class row in C at the fibre sums, less the entries onto placeholders
    entry = [[(x, t) for t in range(len(deg))] for x in range(field.p)]  # shared (x, t)
    layers = [list(layer) for layer in table.block]
    for i, (c, a) in enumerate(place):
        layers[0][i] = {b: entry[x][t] for d, (x, e) in classes[c].items()
                        for b, t in zip(fibres[d][0], fibres[e][a])
                        if b is not None and t is not None} | layers[0][i]
    gens = table_generators(layers, sorted(range(len(deg)), key=lambda a: deg[a] != 1))
    if len(gens) > 2:
        labels = table.active
        again = table_generators(layers, sorted(
            range(len(deg)), key=lambda a: (deg[a] != 1, -labels[a].j - labels[a].k)))
        gens = min(gens, again, key=len)
    # the classes at k = -1 and those whose row meets a class with a placeholder
    near = [c % ps == 0 or any(None in fibres[e][0] for _x, e in row.values())
            for c, row in enumerate(classes)]
    visit = [i for i, (c, _a) in enumerate(place) if near[c]]
    vectors = [basis.vectors[lab] for lab in table.active]
    return (ads_are_derivations([classes], [place[g][0] for g in gens], field)
            and ads_are_derivations(layers, gens, field,
                                    visit if any(classes) else None)
            and all(descriptor.bracket(vectors[g], vb).terms
                    == _prediction(vectors, field, *table.rule(g, b))
                    for g in gens for b, vb in enumerate(vectors)))


def _prediction(vectors: list, field: FieldParams, c: tuple, t) -> dict:
    """The terms of c v_t, c by its coordinates: empty when t is None, a
    bracket predicted to vanish."""
    return vectors[t].scale(field.element(c)).terms if t is not None else {}


def _pair_sweep(descriptor: AlgebraDescriptor, basis: GradedBasis,
                table: RuleTable | None) -> tuple[list, list]:
    """The violations of `check_graded`, listed by bracketing each ordered
    pair (i, j) of active labels; table is the `_product_rule` table of
    cfg, or None without product tables.  It runs only when the
    certificate fails or cannot apply, so its job is to name the
    violations, which come out in (i, j) order.  Each bracket is compared
    with its prediction c v_L and reduced against the echelon of the degree
    sum.
    """
    spec, field = basis.spec, basis.field
    by_deg: dict[int, SparseEchelon] = {}
    active = basis.active_labels
    vectors = [basis.vectors[lab] for lab in active]
    degrees = [basis.degrees[lab] for lab in active]
    for v, d in zip(vectors, degrees):
        by_deg.setdefault(d, SparseEchelon(field, spec.heights)).insert(v)
    strays, misses = [], []
    for i, va in enumerate(vectors):
        for j, vb in enumerate(vectors):
            w = descriptor.bracket(va, vb)
            if table is not None and w.terms != _prediction(vectors, field, *table.rule(i, j)):
                misses.append((active[i], active[j]))
            if w.is_zero():
                continue
            ech = by_deg.get((degrees[i] + degrees[j]) % spec.N)
            stray = ech.reduce(w) if ech is not None else w
            if not stray.is_zero():
                strays.append((active[i], active[j], stray))
    return strays, misses


def verify_product_tables(descriptor: AlgebraDescriptor, basis: GradedBasis,
                          cfg: SwitchConfig) -> list:
    """The (label, label) misses of the closed product rules, by `check_graded`."""
    return check_graded(descriptor, basis, cfg)[1]


def _product_rule(basis: GradedBasis, cfg: SwitchConfig) -> RuleTable:
    """The brackets of switched basis vectors predicted by the closed rules,
    as the `RuleTable` of the active labels.

    For labels (j,k,a), (l,h,b) the bracket is predicted as a single scaled
    basis vector c v_L: c = C(k+h+1,h)C(j+l+1,j) - C(k+h+1,k)C(j+l+1,l) at
    L = (j+l, k+h, a+b) when k and h are not both -1, and
    c = sigma*(C(j+l+1,j) beta - C(j+l+1,l) alpha) at L = (j+l, p^s-2, a+b-1)
    when k = h = -1, with alpha, beta the generalized-power exponents of the
    two labels.  The label index a is reduced mod p.  Exchanging the two
    labels negates c and keeps L; `check_graded` tests this per pair
    rather than assuming it.  Pairs range over active labels only: the
    zero placeholders are not basis vectors, and as bracket targets they
    are covered by the coefficient vanishing (top) or by the constant
    projection (bottom), so an entry onto one is dropped.

    Each part of a rule is computed once per class it depends on.  Off
    k = h = -1, c is the Poisson determinant X0 Y1 - X1 Y0 of the label
    exponents, x^(k+1), x^(h+1) on one axis and y^(j+1), y^(l+1) on the
    other, from the factors `liealg.axis_factors` tabulates for the
    structure constants: (X0, X1) = (C(k+h+1,h), C(k+h+1,k)) and
    (Y0, Y1) = (C(j+l+1,l), C(j+l+1,j)).  It depends on (j, l, k, h)
    alone and the fibres enter only through a + b, so it is the entry of
    the class table C at ((j, k), (l, h)), and those pairs are never
    stored one by one.  Every target lies in the label range: for
    g = e + f - 1 >= p^n with e, f < p^n the sum carries a digit, so
    C(g, e) and C(g, e - 1) vanish mod p (Kummer) and `axis_factors` lists
    no such g.  On k = h = -1, c = sigma (Y1 beta - Y0 alpha) is an
    F_p-combination of sigma*alpha, computed once per (j, a) and combined
    coordinate-wise per (a, b), into the block.  So the table costs q p
    field multiplies and builds no algebra element.
    """
    spec, field = basis.spec, basis.field
    if not spec.case.is_switched:
        raise ValueError("product tables exist for the switched cases only")
    p, q, ps = field.p, spec.q, spec.step
    active = basis.active_labels
    place = [((lab.j + 1) * ps + lab.k + 1, lab.a) for lab in active]
    index = {x: i for i, x in enumerate(place)}
    # fibres[c][a][b]: active index of (j, k, a + b) for c = (j + 1) p^s + k + 1,
    # None at a placeholder
    fibres = [[[index.get((c, (a + b) % p)) for b in range(p)] for a in range(p)]
              for c in range(q * ps)]
    sigma_expo = [[(cfg.sigma * _label_exponent(spec, cfg, j, a)).coeffs for a in range(p)]
                  for j in range(-1, q - 1)]
    block = [[{} for _ in active] for _ in range(field.m)]
    classes = [{} for _ in fibres]
    xs = axis_factors(ps, p)

    # j1, l1, k1, h1 are the exponents j + 1, l + 1, k + 1, h + 1; gy, gx the target's
    for j1, yrow in enumerate(axis_factors(q, p)):
        for l1, y0, y1, gy in yrow:
            # k = h = -1: c = sigma (Y1 beta - Y0 alpha) onto (j + l, p^s - 2, a + b - 1)
            for a, ia in enumerate(fibres[j1 * ps][0]):
                for b, ib in enumerate(fibres[l1 * ps][0]):  # [a - 1] at a = 0 is the fibre p - 1
                    if None not in (ia, ib, t := fibres[gy * ps + ps - 1][a - 1][b]):
                        for layer, x, y in zip(block, sigma_expo[j1][a], sigma_expo[l1][b]):
                            if z := (y1 * y - y0 * x) % p:
                                layer[ia][ib] = z, t
            # otherwise: c = X0 Y1 - X1 Y0 in F_p onto the class (j + l, k + h)
            for k1, xrow in enumerate(xs):
                for h1, x0, x1, gx in xrow:
                    if x := (x0 * y1 - x1 * y0) % p:
                        classes[j1 * ps + k1][l1 * ps + h1] = x, gy * ps + gx
    return RuleTable(active, place, fibres, classes, block)


def switch_checks(descriptor: AlgebraDescriptor, raw: GradedBasis,
                  closed: GradedBasis, cfg: SwitchConfig) -> tuple[list, list, list, list]:
    """graded_raw, graded_closed, scalar_link and product_tables violations
    from one `check_graded` of the closed basis, whose rank
    `build_closed_basis` checked.

    scalar_link lists the labels whose closed vector is not the raw one
    times the closed scalar.  If there are none and both bases share spec,
    labels, degrees and active labels, each active closed vector is s times
    the raw one, s != 0.  So the raw vectors are independent because the
    closed ones are, and the raw basis needs no rank check of its own.
    `SparseEchelon.insert` stores rows with a unit lead (see its class
    docstring) and `reduce` commutes with scalars, so the raw echelons hold
    the same rows and each raw stray is the closed one over s_a s_b, in the
    same order.  Otherwise the raw basis's rank is checked
    (`GradedBasis.validate_rank`, a ValueError if it fails) and the raw
    basis is swept on its own.
    """
    link = [lab for lab in closed.labels
            if closed.vectors[lab] != raw.vectors[lab].scale(closed.scalars[lab])]
    strays, misses = check_graded(descriptor, closed, cfg)
    if not link and (raw.spec, raw.labels, raw.degrees, raw.active_labels) == (
            closed.spec, closed.labels, closed.degrees, closed.active_labels):
        s = closed.scalars
        raw_strays = [(la, lb, w.scale((s[la] * s[lb]).inverse())) for la, lb, w in strays]
    else:
        raw.validate_rank(descriptor)
        raw_strays = check_graded(descriptor, raw)[0]
    return raw_strays, strays, link, misses
