"""Loop expansion of a graded algebra and the thin diamond-pattern checks.

The positive part of the loop algebra is expanded degree by degree inside
the finite algebra, carrying the degree as an integer: L_1 = <X, Y> and
L_{i+1} = [L_i, L_1].  Components are subspaces of the degree class
i mod N, so periodicity of the expansion is a checkable claim rather than
a modeling assumption.  The analysis battery then verifies thinness, the
covering property, the diamond positions and types, the generator
normalization, centralizer chains and the per-period dimension count.
"""

from typing import NamedTuple

from .common import CheckResult, GradingCase, GradingSpec, checks_passed, verdict_lines
from .dpalgebra import AlgebraElement, SparseEchelon
from .ffield import FieldElement, FieldParams, plane_kernel, square_root
from .grading import GradedBasis, SwitchConfig
from .liealg import AlgebraDescriptor

INFINITY = "Infinity"


class LoopConfig:
    """Generators and bound for expanding the positive part of the loop.

    X and Y must be nonzero, independent and homogeneous of degree 1 in the
    supplied graded basis; every component then stays inside one degree
    class of the finite algebra.  first is the echelon of L_1 = <X, Y>.
    """

    def __init__(self, alg: AlgebraDescriptor, basis: GradedBasis, X: AlgebraElement,
                 Y: AlgebraElement, max_degree: int):
        self.alg = alg
        self.basis = basis
        self.X = X
        self.Y = Y
        self.max_degree = max_degree
        if self.max_degree < 1:
            raise ValueError("max_degree must be positive")
        self.first = SparseEchelon(self.alg.field, self.alg.heights)
        if not self.first.insert(self.X) or not self.first.insert(self.Y):
            raise ValueError("X and Y must be nonzero and linearly independent")
        deg1 = SparseEchelon(self.alg.field, self.alg.heights)
        for lab in self.basis.active_labels:
            if self.basis.degrees[lab] == 1:
                deg1.insert(self.basis.vectors[lab])
        if not (deg1.contains(self.X) and deg1.contains(self.Y)):
            raise ValueError("generators must be homogeneous of degree 1")


class ComponentRecord:
    """One loop component: its degree, dimension and reduced basis.

    images holds ([u, X], [u, Y]) for each basis vector u, in the order of
    vectors; expand_loop fills it for every component it brackets, that is
    every one but the last.
    """

    def __init__(self, degree: int, dim: int, vectors: list, echelon: SparseEchelon | None,
                 images: list | None = None):
        self.degree = degree
        self.dim = dim
        self.vectors = vectors
        self.echelon = echelon
        self.images = [] if images is None else images


class DiamondRecord(NamedTuple):
    """Classification of one diamond slot.

    kind is one of "first" (degree 1, no type), "genuine" (dtype a field
    element or "Infinity"), "fake" (dtype 0 or 1) and "anomaly" (dtype a
    description).
    """

    degree: int
    kind: str
    dtype: object

    def type_json(self):
        return str(self.dtype) if isinstance(self.dtype, FieldElement) else self.dtype

    def type_text(self) -> str:
        if self.kind == "first":
            return "first"
        if self.kind == "fake":
            return f"fake({self.dtype})"
        if self.kind == "anomaly":
            return f"anomaly({self.dtype})"
        return str(self.dtype)


class ThinReport:
    """Full analysis artifact: parameter echo, components, diamonds, checks."""

    def __init__(self, params: dict, components: list, diamonds: list, checks: dict):
        self.params = params
        self.components = components
        self.diamonds = diamonds
        self.checks = checks

    @property
    def passed(self) -> bool:
        return checks_passed(self.checks)

    def to_dict(self) -> dict:
        return {
            "params": dict(self.params),
            "components": [
                {"degree": r.degree, "dim": r.dim} for r in self.components
            ],
            "diamonds": [
                {"degree": d.degree, "kind": d.kind, "type": d.type_json()}
                for d in self.diamonds
            ],
            "checks": {name: c.to_json() for name, c in self.checks.items()},
        }

    def to_json(self) -> str:
        import json  # only JSON output pays for the import
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_dict(cls, data: dict) -> "ThinReport":
        components = [
            ComponentRecord(c["degree"], c["dim"], [], None)
            for c in data["components"]
        ]
        diamonds = [
            DiamondRecord(d["degree"], d["kind"], d["type"])
            for d in data["diamonds"]
        ]
        checks = {
            name: CheckResult(
                name, c["pass"], c.get("counterexample"), c.get("informational", False)
            )
            for name, c in data["checks"].items()
        }
        return cls(dict(data["params"]), components, diamonds, checks)

    @classmethod
    def from_json(cls, text: str) -> "ThinReport":
        import json
        return cls.from_dict(json.loads(text))

    def __eq__(self, other):
        return isinstance(other, ThinReport) and self.to_dict() == other.to_dict()


def render_text(report: ThinReport) -> str:
    """Deterministic plain-text report: diamond timeline, one degree:type
    per line, followed by the named check verdicts."""
    pr = report.params
    lines = [
        "case={case} p={p} n={n} s={s} N={N} q={q} field={field} "
        "sigma={sigma} pi={pi}".format(**pr)
    ]
    for d in report.diamonds:
        lines.append(f"{d.degree}:{d.type_text()}")
    lines.extend(verdict_lines(report.checks))
    return "\n".join(lines) + "\n"


def expand_loop(cfg: LoopConfig) -> list:
    """Components L_1 .. L_max, L_{i+1} spanned by [u, X], [u, Y] over u in L_i.

    Dimensions other than 1 and 2 are recorded as found; a collapse to zero
    simply propagates.  The brackets are kept as each record's images for
    the checks to read.
    """
    field, heights = cfg.alg.field, cfg.alg.heights
    records = [ComponentRecord(1, cfg.first.rank, cfg.first.basis(), cfg.first)]
    for i in range(2, cfg.max_degree + 1):
        ech = SparseEchelon(field, heights)
        prev = records[-1]
        prev.images = [(cfg.alg.bracket(u, cfg.X), cfg.alg.bracket(u, cfg.Y))
                       for u in prev.vectors]
        for bx, by in prev.images:
            ech.insert(bx)
            ech.insert(by)
        records.append(ComponentRecord(i, ech.rank, ech.basis(), ech))
    return records


def check_covering(cfg: LoopConfig, i: int, records: list):
    """None if every nonzero u in L_i has span{[u,X],[u,Y]} = L_{i+1}, else
    the first failing line of L_i, in the order u_2, then u_1 + c*u_2 for c
    in field.elements(), as a counterexample dict.

    The check is linear algebra on four images, not a search over lines,
    and the computation that decides the verdict also names the line:

    - Containment is free.  expand_loop spans L_{i+1} by exactly the
      images A_k = [u_k, X] and B_k = [u_k, Y] of the basis u_k of L_i,
      kept on the record, so covering is a rank condition on them.
    - Coordinates.  Each image is read at the pivots of the echelon of
      L_{i+1} by `SparseEchelon.coordinates`, which is injective on
      L_{i+1} (see `SparseEchelon`).
    - dim L_i = 1: pass iff rank{A_1, B_1} = dim L_{i+1}, else u_1 fails.
    - dim L_i = 2, dim L_{i+1} = 1: u = a*u_1 + b*u_2 maps to
      (a*A_1 + b*A_2, a*B_1 + b*B_2), so the failing lines are the kernel
      of [[A_1, A_2], [B_1, B_2]]: u_2 when it holds (0:1), else c = b/a.
    - dim L_i = 2, dim L_{i+1} = 2: det([u,X] | [u,Y]) is the binary
      quadratic form alpha*a^2 + beta*a*b + gamma*b^2 with
      alpha = det(A_1|B_1), beta = det(A_1|B_2) + det(A_2|B_1) and
      gamma = det(A_2|B_2).  q is odd, so by completing the square some
      line fails iff the discriminant beta^2 - 4*alpha*gamma is a square:
      u_2 when gamma = 0, else the roots c of gamma*c^2 + beta*c + alpha.
    - dim L_{i+1} = 0 or > 2 fails at u_2: the chain is required not to
      die, and two images cannot span more than a plane.

    Components of dimension 0 or above 2 are left to the thinness check.
    The failing line's images are combined from the four images above,
    which equals bracketing directly because elements are canonical.
    """
    cur, nxt = records[i - 1], records[i]
    if cur.dim == 0 or cur.dim > 2:
        return None
    read = nxt.echelon.coordinates
    coords = [(read(a), read(b)) for a, b in cur.images]
    c = None  # the failing line is u_1 + c*u_2, else the last basis vector
    if cur.dim == 1:
        if _spans(*coords[0]):
            return None
    elif nxt.dim == 1:
        ((a1,), (b1,)), ((a2,), (b2,)) = coords
        kernel = plane_kernel(cfg.alg.field, [(a1, a2), (b1, b2)])
        if not kernel:
            return None
        a, b = kernel[0]
        if len(kernel) == 1 and not a.is_zero():
            c = b / a
    elif nxt.dim == 2:
        (a1, b1), (a2, b2) = coords
        alpha, beta, gamma = _det(a1, b1), _det(a1, b2) + _det(a2, b1), _det(a2, b2)
        root = square_root(beta * beta - alpha * gamma * 4)
        if root is None:
            return None
        if not gamma.is_zero():  # the root first in elements() order
            c = min(((r - beta) / (gamma * 2) for r in (root, -root)),
                    key=lambda x: x.coeffs)
    u, (bx, by) = cur.vectors[-1], cur.images[-1]
    if c is not None:
        u1, (x1, y1) = cur.vectors[0], cur.images[0]
        u, bx, by = u1 + u.scale(c), x1 + bx.scale(c), y1 + by.scale(c)
    return {
        "degree": i,
        "representative": u.text(),
        "image_with_X": bx.text(),
        "image_with_Y": by.text(),
    }


def _det(x: tuple, y: tuple) -> FieldElement:
    return x[0] * y[1] - x[1] * y[0]


def _spans(x: tuple, y: tuple) -> bool:
    """Whether coordinate vectors x and y span their whole space, which
    must be of dimension 1 or 2 to be spanned at all."""
    if len(x) == 1:
        return not (x[0].is_zero() and y[0].is_zero())
    if len(x) == 2:
        return not _det(x, y).is_zero()
    return False


def _scalar_ratio(v: AlgebraElement, w: AlgebraElement):
    """c with v = c*w, or None when v is not a multiple of w."""
    if v.is_zero():
        return v.field.zero()
    m0 = w.support()[0]
    c = v.coeff(m0) / w.coeff(m0)
    return c if v == w.scale(c) else None


def _double_brackets(cfg: LoopConfig, rec: ComponentRecord) -> tuple:
    """[V,X,X], [V,X,Y], [V,Y,X], [V,Y,Y] for V spanning the line component
    rec, bracketed from its images."""
    desc, X, Y = cfg.alg, cfg.X, cfg.Y
    vx, vy = rec.images[0]
    return (desc.bracket(vx, X), desc.bracket(vx, Y),
            desc.bracket(vy, X), desc.bracket(vy, Y))


def classify_component(cfg: LoopConfig, i: int, records: list) -> DiamondRecord:
    """Diamond record for the slot at degree i.

    Needs V spanning L_{i-1}: with [V,X,X] = 0 = [V,Y,Y] and w spanning
    L_{i+1}, writing [V,X,Y] = alpha*w and [V,Y,X] = beta*w, the type is
    alpha/(alpha+beta), or Infinity when alpha = -beta != 0.  A slot of
    dimension 1 is a fake diamond: type 1 when [V,Y] = 0, else type 0 when
    [V,X,Y] = 0 = [V,X,X].  Everything else is an anomaly; anomalies are
    data, never exceptions.
    """
    if i == 1:
        return DiamondRecord(1, "first", None)
    prev, cur = records[i - 2], records[i - 1]
    if prev.dim != 1:
        return DiamondRecord(i, "anomaly", f"component {i - 1} has dimension {prev.dim}")
    vxx, vxy, vyx, vyy = _double_brackets(cfg, prev)
    if cur.dim == 1:
        if prev.images[0][1].is_zero():  # [V,Y] = 0
            return DiamondRecord(i, "fake", 1)
        if vxy.is_zero() and vxx.is_zero():
            return DiamondRecord(i, "fake", 0)
        return DiamondRecord(i, "anomaly", "one-dimensional slot fits neither fake reading")
    if cur.dim != 2:
        return DiamondRecord(i, "anomaly", f"slot has dimension {cur.dim}")
    if not vxx.is_zero():
        return DiamondRecord(i, "anomaly", f"[V,X,X] = {vxx.text()}")
    if not vyy.is_zero():
        return DiamondRecord(i, "anomaly", f"[V,Y,Y] = {vyy.text()}")
    nxt = records[i]
    if nxt.dim != 1:
        return DiamondRecord(i, "anomaly", f"component {i + 1} has dimension {nxt.dim}")
    w = nxt.vectors[0]
    alpha = _scalar_ratio(vxy, w)
    beta = _scalar_ratio(vyx, w)
    if alpha is None or beta is None:
        return DiamondRecord(i, "anomaly", "double brackets leave the next component")
    if alpha.is_zero() and beta.is_zero():
        return DiamondRecord(i, "anomaly", "both double brackets vanish")
    total = alpha + beta
    if total.is_zero():
        return DiamondRecord(i, "genuine", INFINITY)
    mu = alpha / total
    if mu == cfg.alg.field.zero() or mu == cfg.alg.field.one():
        return DiamondRecord(i, "anomaly", f"two-dimensional slot computes type {mu}")
    return DiamondRecord(i, "genuine", mu)


class PatternParams(NamedTuple):
    """Expected diamond pattern: slots sit at t(q-1)+1; the slots with
    t = 1 mod finite_every carry the finite types -1 + m*delta (m-th such
    slot), all others are infinite.  delta None means the progression is
    undefined (the degenerate pi = 0 control)."""

    q: int
    finite_every: int
    delta: FieldElement | None

    @classmethod
    def for_grading(cls, spec: GradingSpec, cfg: SwitchConfig | None,
                    field: FieldParams) -> "PatternParams":
        if spec.case in (GradingCase.BIG_FIELD, GradingCase.PRIME_FIELD):
            delta = None
            if cfg is not None and not cfg.pi.is_zero():
                delta = cfg.pi.inverse()
            return cls(spec.q, spec.p ** spec.s, delta)
        return cls(spec.q, spec.p ** (spec.s + 1), field.zero())


def verify_pattern(field: FieldParams, records: list, diamonds: list,
                   params: PatternParams, limit: int) -> dict:
    """The four pattern clauses as named CheckResults.

    (a) diamond_positions: two-dimensional components exactly at the slots
        t(q-1)+1, every slot accounted for by a non-anomalous record;
    (b) finite_slot_positions: finite or fake types exactly at t = 1 mod
        finite_every, infinite types elsewhere;
    (c) type_progression: the m-th finite slot reads -1 + m*delta, with
        fake(0)/fake(1) standing in where that value is 0 or 1;
    (d) second_diamond: the slot at degree q is genuine of type -1.
    """
    q = params.q
    slots = list(range(1, limit + 1, q - 1))
    dia = {d.degree: d for d in diamonds}

    unexpected = [r.degree for r in records[:limit]
                  if r.dim == 2 and (r.degree - 1) % (q - 1) != 0]
    missing = [s for s in slots if s not in dia or dia[s].kind == "anomaly"]
    positions = CheckResult(
        "diamond_positions",
        not unexpected and not missing,
        {"unexpected": unexpected, "missing": missing}
        if unexpected or missing else None,
    )

    misplaced = []
    for d in diamonds:
        if d.degree == 1 or d.kind == "anomaly":
            continue
        t = (d.degree - 1) // (q - 1)
        want_finite = (t - 1) % params.finite_every == 0
        is_finite = d.kind == "fake" or (d.kind == "genuine" and d.dtype != INFINITY)
        if is_finite != want_finite:
            misplaced.append({
                "degree": d.degree,
                "expected": "finite" if want_finite else "infinite",
                "found": d.type_text(),
            })
    slot_kinds = CheckResult(
        "finite_slot_positions", not misplaced, misplaced or None
    )

    if params.delta is None:
        progression = CheckResult(
            "type_progression", False,
            {"reason": "type progression undefined for pi = 0"},
        )
    else:
        problems = []
        m = 0
        while True:
            deg = q + m * params.finite_every * (q - 1)
            if deg > limit:
                break
            value = params.delta * m - 1
            if value == field.zero():
                want_kind, want_type = "fake", 0
            elif value == field.one():
                want_kind, want_type = "fake", 1
            else:
                want_kind, want_type = "genuine", value
            rec = dia.get(deg)
            if rec is None or rec.kind != want_kind or rec.dtype != want_type:
                problems.append({
                    "degree": deg,
                    "expected": f"{want_kind}:{want_type}",
                    "found": rec.type_text() if rec else "missing",
                })
            m += 1
        progression = CheckResult("type_progression", not problems, problems or None)

    rec_q = dia.get(q)
    second_ok = (
        rec_q is not None
        and rec_q.kind == "genuine"
        and rec_q.dtype == field.element(-1)
    )
    second = CheckResult(
        "second_diamond", second_ok,
        None if second_ok else {"degree": q,
                                "found": rec_q.type_text() if rec_q else "missing"},
    )
    return {c.name: c for c in (positions, slot_kinds, progression, second)}


def normalization_check(cfg: LoopConfig, records: list) -> CheckResult:
    """Generator normalization at the second diamond: with V spanning
    L_{q-1}, requires [V,X,X] = 0 = [V,Y,Y] and [V,Y,X] = -2[V,X,Y]."""
    q = cfg.basis.spec.q
    prev = records[q - 2]
    if prev.dim != 1:
        return CheckResult("normalization", False,
                           {"reason": f"component {q - 1} has dimension {prev.dim}"})
    vxx, vxy, vyx, vyy = _double_brackets(cfg, prev)
    problems = {}
    if not vxx.is_zero():
        problems["[V,X,X]"] = vxx.text()
    if not vyy.is_zero():
        problems["[V,Y,Y]"] = vyy.text()
    if vyx != vxy.scale(-2):
        problems["[V,Y,X] + 2[V,X,Y]"] = (vyx + vxy.scale(2)).text()
    return CheckResult("normalization", not problems, problems or None)


def centralizer_chain(cfg: LoopConfig, records: list, bound: int) -> dict:
    """Per degree i <= bound, the subspace {v in L_1 : [u, v] = 0 for all
    u in L_i}, returned as reduced coordinate pairs in the (X, Y) basis.

    [u, aX + bY] = a[u, X] + b[u, Y] lies in L_{i+1}, so the condition is
    read at the pivots of L_{i+1} by `SparseEchelon.coordinates`, injective
    there (see `SparseEchelon`): one row (x, y) per basis vector u and
    pivot, with the centralizer the kernel {(a, b) : a*x + b*y = 0 for
    every row}.
    """
    out = {}
    for i in range(1, bound + 1):
        read = records[i].echelon.coordinates
        rows = [xy for bx, by in records[i - 1].images for xy in zip(read(bx), read(by))]
        out[i] = plane_kernel(cfg.alg.field, rows)
    return out


def _chain_text(space: list) -> list:
    return [[str(c) for c in vec] for vec in space]


def first_chain_check(field: FieldParams, chain: dict, q: int) -> CheckResult:
    """Centralizer of L_i in L_1 is exactly <Y> for 2 <= i <= q-2 and zero
    at i = q-1 (the component feeding the second diamond)."""
    y_only = [[field.zero(), field.one()]]
    problems = []
    for i in range(2, q - 1):
        if chain[i] != y_only:
            problems.append({"degree": i, "centralizer": _chain_text(chain[i])})
    if chain[q - 1]:
        problems.append({"degree": q - 1, "centralizer": _chain_text(chain[q - 1])})
    return CheckResult("first_centralizer_chain", not problems, problems or None)


def second_chain_check(field: FieldParams, chain: dict, p: int, q: int) -> CheckResult:
    """Centralizer of L_i in L_1 is <Y> for q+1 <= i <= 2q-3; asserted only
    when p > 3 and q != 5, informational otherwise."""
    y_only = [[field.zero(), field.one()]]
    problems = []
    for i in range(q + 1, 2 * q - 2):
        if chain[i] != y_only:
            problems.append({"degree": i, "centralizer": _chain_text(chain[i])})
    informational = not (p > 3 and q != 5)
    return CheckResult("second_centralizer_chain", not problems, problems or None,
                       informational)


def periodicity_failures(records: list, period: int) -> list:
    """Degrees i with L_{i+period} != L_i, over every i the expansion reached."""
    bad = []
    for i in range(1, len(records) - period + 1):
        if records[i - 1].echelon != records[i + period - 1].echelon:
            bad.append(i)
    return bad


def degree_floor(spec: GradingSpec) -> int:
    """Least max_degree run_analysis accepts: 2N + q."""
    return 2 * spec.N + spec.q


def run_analysis(descriptor: AlgebraDescriptor, basis: GradedBasis,
                 X: AlgebraElement, Y: AlgebraElement, params_echo: dict,
                 max_degree: int | None = None,
                 cfg: SwitchConfig | None = None) -> ThinReport:
    """Expand the loop to max_degree (default 3N) and run the check battery;
    the report carries params_echo as its parameters.

    The expansion internally goes one degree further so the last reported
    slot can still be classified.  Check failures and anomalies are data;
    the only exceptions raised here are configuration errors.
    """
    spec = basis.spec
    field = descriptor.field
    N, q, p = spec.N, spec.q, spec.p
    limit = 3 * N if max_degree is None else max_degree
    floor = degree_floor(spec)
    if limit < floor:
        raise ValueError(f"max_degree must be at least 2N + q = {floor}")
    loop = LoopConfig(descriptor, basis, X, Y, limit + 1)
    records = expand_loop(loop)

    thin_bad = [{"degree": r.degree, "dim": r.dim}
                for r in records[:limit] if r.dim not in (1, 2)]
    cover_bad = []
    for i in range(1, limit + 1):
        ce = check_covering(loop, i, records)
        if ce is not None:
            cover_bad.append(ce)
    diamonds = [classify_component(loop, i, records)
                for i in range(1, limit + 1, q - 1)]
    pattern = PatternParams.for_grading(spec, cfg, field)
    pattern_checks = verify_pattern(field, records, diamonds, pattern, limit)
    chain = centralizer_chain(loop, records, 2 * q - 3)
    period_bad = periodicity_failures(records[:limit], N)
    dim_total = sum(r.dim for r in records[:N])

    checks = {}
    checks["thinness"] = CheckResult("thinness", not thin_bad, thin_bad or None)
    checks["covering"] = CheckResult("covering", not cover_bad, cover_bad or None)
    for name in ("diamond_positions", "finite_slot_positions",
                 "type_progression", "second_diamond"):
        checks[name] = pattern_checks[name]
    checks["normalization"] = normalization_check(loop, records)
    checks["first_centralizer_chain"] = first_chain_check(field, chain, q)
    checks["second_centralizer_chain"] = second_chain_check(field, chain, p, q)
    checks["periodicity"] = CheckResult(
        "periodicity", not period_bad,
        {"degrees": period_bad} if period_bad else None,
    )
    checks["dimension_sum"] = CheckResult(
        "dimension_sum", dim_total == descriptor.dim,
        None if dim_total == descriptor.dim
        else {"sum": dim_total, "dim": descriptor.dim},
    )
    return ThinReport(params_echo, records[:limit], diamonds, checks)
