"""Cyclic gradings of the two algebra families, the hypotheses of the
grading switch and the closed forms of the switched bases.

Four grading cases are supported.  The two pre-switch cases grade the
monomial basis directly; the two switched cases attach vectors to triples
(j, k, a) with j in [-1, q-2], k in [-1, p^s-2], a in [0, p-1], where the
label corresponds to the source monomial x^(a p^s + k + 1) y^(j + 1).
Degrees live in Z/N.  The closed forms of the switched bases are
generalized powers (1 + sigma x^(p^s))^alpha times a monomial, and agree
with the raw Laguerre switch of `switch` up to recorded scalars.  The
derivation is a monomial map (see `liealg`), so D^p and D^(p^2) follow one
chain of entries per monomial.  This module holds what `analyze` and a
closed basis need; the raw switch and the product-rule certificate are in
`switch`, which `switch` alone loads.
"""

from __future__ import annotations

import importlib
import re

from .common import GradingCase, GradingSpec, Label
from .dpalgebra import AlgebraElement, Monomial, SparseEchelon, generalized_power, parse_element
from .ffield import FieldElement, FieldParams, falling_factorial
from .liealg import AlgebraDescriptor, Derivation, table_power


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


#: Names the benchmark's tracer still looks up in this module, by the module
#: that now defines them; served from there until its spans name that one.
_TRACED = {"check_graded": "switch", "laguerre_apply": "switch", "switch_grading": "switch",
           "verify_product_tables": "switch", "monomial_grading_violations": "common"}


def __getattr__(name):
    if name in _TRACED:
        return getattr(importlib.import_module(f".{_TRACED[name]}", __package__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
