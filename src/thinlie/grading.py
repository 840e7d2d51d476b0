"""Cyclic gradings of the two algebra families and grading switching.

Four grading cases are supported.  The two pre-switch cases grade the
monomial basis directly; the two switched cases attach vectors to triples
(j, k, a) with j in [-1, q-2], k in [-1, p^s-2], a in [0, p-1], where the
label corresponds to the source monomial x^(a p^s + k + 1) y^(j + 1).
Degrees live in Z/N.  Switching replaces each monomial by a truncated
Laguerre series of a nilpotent-or-semisimple derivation applied to it; the
closed forms of the switched bases are generalized powers
(1 + sigma x^(p^s))^alpha times a monomial, and the two constructions agree
up to recorded scalars.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import re
from typing import NamedTuple

from .dpalgebra import AlgebraElement, Heights, Monomial, SparseEchelon
from .dpalgebra import generalized_power, parse_element
from .ffield import (
    FieldElement,
    FieldParams,
    factorial_mod,
    falling_binomial,
    lucas_binomial,
)
from .liealg import (AlgebraDescriptor, Derivation, ad_table, anticommutativity_violations,
                     derivation_defects, jacobi_certificate, table_generators, table_power)


class GradingCase(enum.Enum):
    PRESWITCH_AZ = "preswitch-az"
    PRESWITCH_GH = "preswitch-gh"
    BIG_FIELD = "big-field"
    PRIME_FIELD = "prime-field"


#: cases whose degree formula carries the pi-twist (a + j*pi)p^s
_TWISTED = (GradingCase.PRESWITCH_GH, GradingCase.PRIME_FIELD)


class Label(NamedTuple):
    j: int
    k: int
    a: int

    def text(self) -> str:
        return f"({self.j},{self.k},{self.a})"


@dataclasses.dataclass(frozen=True)
class GradingSpec:
    """Degree bookkeeping: case tag, exponent heights, step s, pi residue."""

    case: GradingCase
    heights: Heights
    s: int
    pi_residue: int = 0

    def __post_init__(self):
        if self.s < 0:
            raise ValueError("s must be >= 0")
        if self.case is not GradingCase.PRESWITCH_AZ:
            if self.heights.n1 != self.s + 1:
                raise ValueError("label-indexed gradings need n1 = s + 1")

    @property
    def p(self) -> int:
        return self.heights.p

    @property
    def q(self) -> int:
        return self.heights.q

    @property
    def N(self) -> int:
        if self.case is GradingCase.PRESWITCH_AZ:
            return self.heights.xbound * (self.q - 1)
        return self.p ** (self.s + 1) * (self.q - 1)

    @property
    def step(self) -> int:
        return self.p ** self.s

    def degree_of_label(self, lab: Label) -> int:
        j, k, a = lab
        shift = a + j * self.pi_residue if self.case in _TWISTED else a
        return ((1 - self.q) * (shift * self.step + k) - j) % self.N

    def degree_of_monomial(self, m: Monomial) -> int:
        if self.case is GradingCase.PRESWITCH_AZ:
            return ((1 - self.q) * (m.i - 1) - (m.j - 1)) % self.N
        return self.degree_of_label(self.label_of_monomial(m))

    def label_of_monomial(self, m: Monomial) -> Label:
        if self.heights.n1 != self.s + 1:
            raise ValueError("label conversion needs n1 = s + 1")
        a, r = divmod(m.i, self.step)
        return Label(m.j - 1, r - 1, a)

    def monomial_of_label(self, lab: Label) -> Monomial:
        return Monomial(lab.a * self.step + lab.k + 1, lab.j + 1)

    def labels(self):
        """All labels in ascending (j, k, a) order."""
        for j in range(-1, self.q - 1):
            for k in range(-1, self.step - 1):
                for a in range(self.p):
                    yield Label(j, k, a)


def monomial_grading_violations(descriptor: AlgebraDescriptor, spec: GradingSpec) -> list:
    """Monomial pairs whose bracket leaves the degree class of the degree sum.

    Works on the integer structure-constant table, so it covers any heights,
    including configurations without a label chart.  Empty list means the
    monomial basis realizes the grading.
    """
    basis, n = descriptor.basis, spec.N
    deg = [spec.degree_of_monomial(m) for m in basis]
    violations = []
    for ia, row in enumerate(descriptor.table):
        for ib, (_c, k) in row.items():
            if deg[k] != (deg[ia] + deg[ib]) % n:
                violations.append((ia, ib))
    violations.sort()
    return [(basis[ia], basis[ib]) for ia, ib in violations]


@dataclasses.dataclass
class SwitchConfig:
    """Switching parameters: sigma, pi and the derivation step s.

    lam = sigma^(-1) scales the derivation inside each Laguerre series.  The
    compatibility (pi^p - pi) sigma^p = 1 is demanded only on the eigenvalue
    route (checked there); pi = 0 is the documented degenerate choice and
    must be opted into explicitly.
    """

    field: FieldParams
    sigma: FieldElement
    pi: FieldElement
    s: int
    allow_zero_pi: bool = False

    def __post_init__(self):
        self.sigma = self.field.element(self.sigma)
        self.pi = self.field.element(self.pi)
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


@dataclasses.dataclass
class GradedBasis:
    """Vectors, degrees and closed-form scalars indexed by labels.

    Placeholder labels carry the zero vector and a zero scalar; every other
    scalar is the factor relating the stored vector to the raw switching
    output for the same label.
    """

    spec: GradingSpec
    field: FieldParams
    labels: list
    vectors: dict
    degrees: dict
    scalars: dict

    @property
    def active_labels(self) -> list:
        return [lab for lab in self.labels if not self.vectors[lab].is_zero()]

    def validate_rank(self, descriptor: AlgebraDescriptor):
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
    the operator is the truncated exponential of scale*D.
    """
    field = v.field
    p = field.p
    alpha = field.element(alpha)
    lam = field.one() if scale is None else field.element(scale)
    out = AlgebraElement.zero(field, v.heights)
    w = v
    for k in range(p):
        c = falling_binomial(alpha + (p - 1), p - 1 - k)
        c = c * field.element(pow(factorial_mod(k, p), -1, p))
        if k % 2:
            c = -c
        out = out + w.scale(c)
        if k < p - 1:
            w = deriv.apply(w).scale(lam)
    return out


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
    if spec.case in (GradingCase.PRESWITCH_AZ, GradingCase.PRESWITCH_GH):
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
                scalar = _closed_scalar(spec, cfg, j, a, alpha)
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


def _closed_scalar(spec: GradingSpec, cfg: SwitchConfig, j: int, a: int,
                   alpha: FieldElement) -> FieldElement:
    """a! sigma^a, times C(alpha, a) / C(alpha - a + p - 1, p - 1) over the
    big field: the closed vector at (j, k, a) over the raw one, for every k."""
    field = cfg.field
    p = field.p
    scalar = field.element(factorial_mod(a, p)) * cfg.sigma ** a
    if spec.case is GradingCase.PRIME_FIELD:
        return scalar
    den = falling_binomial(alpha - a + (p - 1), p - 1)
    if den.is_zero():
        raise ValueError(
            f"closed-basis scalar undefined at j={j}: C(-j pi + p - 1, p - 1) = 0"
        )
    return scalar * falling_binomial(alpha, a) / den


def switch_hypotheses(descriptor: AlgebraDescriptor, spec: GradingSpec,
                      deriv: Derivation, cfg: SwitchConfig) -> dict | None:
    """Verify the switching hypotheses on the integer derivation table.

    The derivation is graded of a single degree d with N | pd, and either
    D^p = 0 (truncated exponential route) or D^(p^2) = lam^((p-1)p) D^p
    with D^p diagonal on monomials and (pi^p - pi) sigma^p = 1 (Laguerre
    route, one operator per eigenvalue label).  A failure raises
    ValueError("hypothesis failure: ...") naming what broke.  Returns the
    Laguerre parameter of each monomial, or None for a zero derivation.
    """
    if spec.case not in (GradingCase.PRESWITCH_AZ, GradingCase.PRESWITCH_GH):
        raise ValueError("switching starts from a pre-switch monomial grading")
    if spec.heights.n1 != spec.s + 1:
        raise ValueError("switching needs n1 = s + 1")
    field = descriptor.field
    p = field.p
    monos = descriptor.basis
    deg = {m: spec.degree_of_monomial(m) for m in monos}

    d = None
    for m, image in zip(monos, deriv.table):
        if not image:
            continue
        degs = {deg[monos[k]] for k in image}
        if len(degs) != 1:
            raise ValueError(f"hypothesis failure: derivation image of {m} is not homogeneous")
        dd = (degs.pop() - deg[m]) % spec.N
        if d is None:
            d = dd
        elif dd != d:
            raise ValueError(f"hypothesis failure: derivation is not graded of one "
                             f"degree: it moves {m} by {dd}, earlier monomials by {d}")
    if d is None:
        return None
    if (p * d) % spec.N != 0:
        raise ValueError(f"hypothesis failure: N = {spec.N} does not divide p*d = {p * d}")

    dp = table_power(deriv.table, p, p)
    if not any(dp):
        return {m: field.zero() for m in monos}
    if not cfg.eigen_compatible():
        raise ValueError("hypothesis failure: (pi^p - pi) sigma^p != 1")
    factor = cfg.lam ** ((p - 1) * p)
    scaled = [factor * c for c in range(p)]  # lam^((p-1)p) c for the entries c of D^p
    alpha_of = [field.element(c) * cfg.pi for c in range(p)]
    alphas = {}
    for i, (m, row, row2) in enumerate(zip(monos, dp, table_power(dp, p, p))):
        if {k: scaled[c] for k, c in row.items()} != {
                k: field.element(c) for k, c in row2.items()}:
            raise ValueError(f"hypothesis failure: D^(p^2) != lam^((p-1)p) D^p on {m}")
        if row.keys() - {i}:
            raise ValueError(f"hypothesis failure: D^p is not diagonal on the monomial "
                             f"basis: D^p {m} has support {sorted(monos[k] for k in row)}")
        # D^p is c in F_p on m.  The series runs in lam D, whose p-th
        # power is lam^p c on m, and the Laguerre parameter of that
        # eigenvalue solves alpha^p - alpha = lam^p c: alpha = c pi does,
        # as c^p = c and pi^p - pi = sigma^(-p) = lam^p.  For the D of
        # AlbertZassenhaus, c = -j on y^(j+1), so alpha is -j pi, the
        # closed form's exponent at a = 0, for every sigma.  graded_raw
        # sweeps this basis without reading the closed forms, so its
        # passing is independent evidence.
        alphas[m] = alpha_of[row.get(i, 0)]
    return alphas


def switch_grading(descriptor: AlgebraDescriptor, spec: GradingSpec,
                   deriv: Derivation, cfg: SwitchConfig) -> GradedBasis:
    """Produce the switched graded basis from a pre-switch monomial grading.

    Verifies the switching hypotheses first (`switch_hypotheses`), then
    applies one Laguerre series per monomial.  A zero derivation returns
    the original grading.
    """
    alphas = switch_hypotheses(descriptor, spec, deriv, cfg)
    if alphas is None:
        # zero derivation: identity switching
        return build_closed_basis(descriptor, spec, None)
    field = descriptor.field
    out_case = (
        GradingCase.BIG_FIELD
        if spec.case is GradingCase.PRESWITCH_AZ
        else GradingCase.PRIME_FIELD
    )
    out_spec = GradingSpec(out_case, spec.heights, spec.s, spec.pi_residue)
    labels = list(out_spec.labels())
    vectors, scalars = {}, {}
    for lab in labels:
        mono = out_spec.monomial_of_label(lab)
        if mono in descriptor.excluded:
            vectors[lab], scalars[lab] = descriptor.zero(), field.zero()
        else:
            vectors[lab] = laguerre_apply(alphas[mono], deriv, descriptor.basis_element(mono),
                                          scale=cfg.lam)
            scalars[lab] = field.one()
    degrees = {lab: out_spec.degree_of_label(lab) for lab in labels}
    basis = GradedBasis(out_spec, field, labels, vectors, degrees, scalars)
    basis.validate_rank(descriptor)
    return basis


def check_graded(descriptor: AlgebraDescriptor, basis: GradedBasis,
                 cfg: SwitchConfig | None = None,
                 anticommutativity: list | None = None) -> tuple[list, list]:
    """Grading and product-table violations of the brackets of active labels.

    Grading: a nonzero bracket is reduced against the echelon of the degree
    class of the degree sum, and a nonzero remainder (the stray) is recorded
    as (label, label, stray); none means the basis realizes a grading.
    Product tables, only when cfg is given: a bracket that differs from the
    prediction (c, L) of `_product_rule`, c v_L, is recorded as
    (label, label).  Returns (strays, misses), both in the order of the
    ordered pairs of active labels.

    When cfg is given and the table is anticommutative, `_rules_certified`
    tries to prove from the two degree-1 generators that every pair obeys
    its rule with L of the degree sum, and then both lists are empty.  When
    it cannot, or without cfg, `_pair_sweep` brackets every unordered pair.
    `anticommutativity` is the list `anticommutativity_violations` returns,
    computed here when not given.
    """
    if anticommutativity is None:
        anticommutativity = anticommutativity_violations(descriptor)
    rule = _product_rule(basis, cfg) if cfg is not None else None
    if rule is not None and not anticommutativity and _rules_certified(descriptor, basis, rule):
        return [], []
    return _pair_sweep(descriptor, basis, rule, anticommutativity)


def _rules_certified(descriptor: AlgebraDescriptor, basis: GradedBasis, rule) -> bool:
    """Whether every bracket of two active basis vectors is c v_L, for the
    rule's (c, L) with L of the degree sum, by a generator certificate.

    Let T be the structure-constant table, T' the rule table on the active
    labels and phi(e_L) = v_L.  The a with phi[a,x]' = [phi a, phi x] for
    every x and ad_a a derivation of T' form a subalgebra of T' when T'
    is anticommutative and T is a Lie algebra: expand [[a,b]',x]' by
    ad_a, apply phi through a and b, and recombine by Jacobi in T (the
    argument of `liealg.jacobi_violations`, Jacobson, Lie Algebras).  So
    the rules hold on every pair once they hold on generators of T'.
    Seven exact checks, in order, any failure returning False:

    1. T' is built from one rule call per ordered pair, in the coordinate
       layers `derivation_defects` takes, by active index; an entry onto a
       placeholder is zero, and a nonzero c without a label fails;
    2. T' is anticommutative;
    3. deg L is the degree sum (mod N) on every entry;
    4. `jacobi_certificate` holds on T (anticommutative, as checked by
       the caller);
    5. the degree-1 labels, X and Y, generate T' (`table_generators`);
    6. ad_g is a derivation of T' for each generator g, by
       `derivation_defects`;
    7. [v_g, v_x] = c v_L for each generator g and active x: 2 x dim
       brackets.

    No echelon is built: a bracket c v_L with L of the degree sum lies in
    the span of that degree's vectors, so it has no stray.
    """
    field, vectors, degrees, N = basis.field, basis.vectors, basis.degrees, basis.spec.N
    p = field.p
    active = basis.active_labels
    n = len(active)
    index = {lab: i for i, lab in enumerate(active)}
    deg = [degrees[lab] for lab in active]
    candidates = [a for a, d in enumerate(deg) if d == 1]
    entry = [[(x, t) for t in range(n)] for x in range(p)]  # shared (x, t) tuples
    layers = [[{} for _ in active] for _ in range(field.m)]
    rule_rows = {a: {} for a in candidates}  # {b: (c, L)} for step 7
    for a, la in enumerate(active):
        rows, kept = [layer[a] for layer in layers], rule_rows.get(a)
        for b, lb in enumerate(active):
            c, lab = rule(la, lb)
            if lab is None:
                if any(c):
                    return False
                continue
            t = index.get(lab)
            if t is None:
                continue
            for row, x in zip(rows, c):
                if x:
                    row[b] = entry[x][t]
            if kept is not None:
                kept[b] = (c, t)
    for layer in layers:
        for a, row in enumerate(layer):
            for b, (x, t) in row.items():
                if layer[b].get(a) != entry[-x % p][t] or deg[t] != (deg[a] + deg[b]) % N:
                    return False
    if not jacobi_certificate(descriptor):
        return False
    gens = table_generators(layers, candidates)
    if gens is None:
        return False
    for g in gens:
        ad = [ad_table(layer, g) for layer in layers]
        if next(derivation_defects(layers, ad, field, half=True), None) is not None:
            return False
    for g in gens:
        vg, row = vectors[active[g]], rule_rows[g]
        for b, lb in enumerate(active):
            c, t = row.get(b, (None, None))
            terms = vectors[active[t]].scale(field.element(c)).terms if c else {}
            if descriptor.bracket(vg, vectors[lb]).terms != terms:
                return False
    return True


def _pair_sweep(descriptor: AlgebraDescriptor, basis: GradedBasis, rule,
                anticommutativity: list) -> tuple[list, list]:
    """`check_graded` by bracketing each unordered pair of active labels
    once, for both checks on both orders of the pair; rule is the
    `_product_rule` of cfg, or None without product tables.

    A bracket equal to its prediction with L of the degree sum needs no
    reduction: v_L is a row of that echelon's span.  Brackets are not
    kept, and c v_L is built once per (L, c).

    When `anticommutativity` is empty the table constants, which lie in
    F_p with p odd, give [v_b, v_a] = -[v_a, v_b] for all vectors, so the
    reversed order of a pair needs no bracket.  If the rule also predicts
    (-c, L) for it, the reversed order misses iff the first does, is
    exempt from reduction iff the first is, and its stray is the first one
    negated, as `SparseEchelon.reduce` commutes with scalars.  Otherwise
    the reversed order is checked on its own, on -[v_a, v_b] or, for a
    table that is not anticommutative, on the bracket [v_b, v_a].
    """
    spec, field = basis.spec, basis.field
    by_deg: dict[int, SparseEchelon] = {}
    active = basis.active_labels
    vectors, degrees = basis.vectors, basis.degrees
    for lab in active:
        ech = by_deg.setdefault(degrees[lab], SparseEchelon(field, spec.heights))
        ech.insert(vectors[lab])
    p, N = field.p, spec.N

    @functools.cache
    def negated(c: tuple) -> tuple:
        return tuple(-x % p for x in c)

    @functools.cache
    def predicted(c: tuple, lab):
        """Terms of c v_L: empty for c = 0, None for c != 0 without a label."""
        if lab is None:
            return None if any(c) else {}
        return vectors[lab].scale(field.element(c)).terms

    strays, misses = [], []
    for ia, la in enumerate(active):
        va, da = vectors[la], degrees[la]
        for ib in range(ia, len(active)):
            lb = active[ib]
            vb = vectors[lb]
            w = descriptor.bracket(va, vb)
            target = (da + degrees[lb]) % N
            forward = rule(la, lb) if rule is not None else None
            orders = [(ia, ib, w, forward)]
            mirrored = False
            if ia != ib:
                backward = rule(lb, la) if rule is not None else None
                if anticommutativity:
                    orders.append((ib, ia, descriptor.bracket(vb, va), backward))
                elif rule is None or (backward[1] == forward[1]
                                      and backward[0] == negated(forward[0])):
                    mirrored = True
                else:
                    orders.append((ib, ia, -w, backward))
            for i, j, wij, rule_ij in orders:
                if rule_ij is not None:
                    c, lab = rule_ij
                    terms = predicted(c, lab)
                    if terms is None or wij.terms != terms:
                        misses.append((i, j))
                        if mirrored:
                            misses.append((j, i))
                    elif lab is not None and degrees[lab] == target:
                        continue
                if wij.is_zero():
                    continue
                ech = by_deg.get(target)
                stray = ech.reduce(wij) if ech is not None else wij
                if not stray.is_zero():
                    strays.append((i, j, stray))
                    if mirrored:
                        strays.append((j, i, -stray))
    strays.sort(key=lambda t: t[:2])
    misses.sort()
    return ([(active[i], active[j], stray) for i, j, stray in strays],
            [(active[i], active[j]) for i, j in misses])


def verify_product_tables(descriptor: AlgebraDescriptor, basis: GradedBasis,
                          cfg: SwitchConfig) -> list:
    """The (label, label) misses of the closed product rules, by `check_graded`."""
    return check_graded(descriptor, basis, cfg)[1]


def _product_rule(basis: GradedBasis, cfg: SwitchConfig):
    """The bracket of two switched basis vectors, predicted by the closed rules.

    For labels (j,k,a), (l,h,b) the bracket is predicted as a single scaled
    basis vector c v_L: c = C(k+h+1,h)C(j+l+1,j) - C(k+h+1,k)C(j+l+1,l) at
    L = (j+l, k+h, a+b) when k and h are not both -1, and
    c = sigma*(C(j+l+1,j) beta - C(j+l+1,l) alpha) at L = (j+l, p^s-2, a+b-1)
    when k = h = -1, with alpha, beta the generalized-power exponents of the
    two labels.  The rule returns (c, L), c as the tuple of its m F_p
    coordinates; L is None when c = 0, the bracket predicted to vanish.  An
    out-of-range target must come with c = 0; else L is None with c != 0,
    no prediction, and the pair is a miss.  The label index a is reduced
    mod p.  Exchanging the two labels negates c and keeps L; `check_graded`
    tests this per pair rather than assuming it.  Pairs range over active
    labels only: the zero placeholders are not basis vectors, and as
    bracket targets they are covered by the coefficient vanishing (top) or
    by the constant projection (bottom).

    The first coefficient is an integer; the second is an F_p-combination
    of sigma*alpha over the labels, computed once per (j, a) and combined
    coordinate-wise, so predicting a pair multiplies no field elements and
    builds no algebra element.  The binomials are read from two tables
    built once per rule, by (j, l) and by (k, h).
    """
    spec, field = basis.spec, basis.field
    if spec.case not in (GradingCase.BIG_FIELD, GradingCase.PRIME_FIELD):
        raise ValueError("product tables exist for the switched cases only")
    p, q, ps = field.p, spec.q, spec.step

    sigma_expo = {(j, a): (cfg.sigma * _label_exponent(spec, cfg, j, a)).coeffs
                  for j in range(-1, q - 1) for a in range(p)}
    in_prime_field = [(c,) + (0,) * (field.m - 1) for c in range(p)]
    label_at = [[[Label(j, k, a) for a in range(p)] for k in range(-1, ps - 1)]
                for j in range(-1, q - 1)]

    def binomials(top: int) -> list[list[tuple[int, int]]]:
        """(C(u+v+1, u), C(u+v+1, v)) mod p at [u+1][v+1], -1 <= u, v <= top."""
        return [[(lucas_binomial(u + v + 1, u, p), lucas_binomial(u + v + 1, v, p))
                 for v in range(-1, top + 1)] for u in range(-1, top + 1)]
    by_jl, by_kh = binomials(q - 2), binomials(ps - 2)

    def rule(la: Label, lb: Label):
        (j, k, a), (l, h, b) = la, lb
        jj = j + l
        cj, cl = by_jl[j + 1][l + 1]
        if k == -1 and h == -1:
            c = tuple((cj * y - cl * x) % p for x, y in
                      zip(sigma_expo[j, a], sigma_expo[l, b]))
            kk, aa = ps - 2, a + b - 1
            if not any(c):
                return c, None
        else:
            ck, ch = by_kh[k + 1][h + 1]
            x = (ch * cj - ck * cl) % p
            c = in_prime_field[x]
            if not x:
                return c, None
            kk, aa = k + h, a + b
        if not (-1 <= jj <= q - 2 and -1 <= kk <= ps - 2):
            return c, None
        return c, label_at[jj + 1][kk + 1][aa % p]

    return rule


def switch_checks(descriptor: AlgebraDescriptor, raw: GradedBasis,
                  closed: GradedBasis, cfg: SwitchConfig) -> tuple[list, list, list, list]:
    """graded_raw, graded_closed, scalar_link and product_tables violations
    from one `check_graded` of the closed basis.

    scalar_link lists the labels whose closed vector is not the raw one
    times the closed scalar.  If there are none and both bases share spec,
    labels, degrees and active labels, each active closed vector is s times
    the raw one, s != 0.  `SparseEchelon.insert` scales rows to a unit lead
    and `reduce` commutes with scalars, so the raw echelons hold the same
    rows and each raw stray is the closed one over s_a s_b, in the same
    order.  Otherwise the raw basis is swept on its own.  Anticommutativity
    of the table is computed once, here, for every check.
    """
    link = [lab for lab in closed.labels
            if closed.vectors[lab] != raw.vectors[lab].scale(closed.scalars[lab])]
    anticommutativity = anticommutativity_violations(descriptor)
    strays, misses = check_graded(descriptor, closed, cfg, anticommutativity)
    if not link and (raw.spec, raw.labels, raw.degrees, raw.active_labels) == (
            closed.spec, closed.labels, closed.degrees, closed.active_labels):
        s = closed.scalars
        raw_strays = [(la, lb, w.scale((s[la] * s[lb]).inverse())) for la, lb, w in strays]
    else:
        raw_strays = check_graded(descriptor, raw, anticommutativity=anticommutativity)[0]
    return raw_strays, strays, link, misses
