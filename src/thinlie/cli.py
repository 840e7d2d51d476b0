"""Command line front end: verify | switch | analyze.

verify   exhaustive algebra, derivation and pre-switch grading checks
switch   grading switch via truncated Laguerre series, closed-basis
         comparison, product tables, serialization round trip
analyze  loop expansion and the diamond-pattern report

Exit codes: 0 all enabled checks pass, 1 check failure or run error,
2 usage error.
"""

import argparse
import importlib.util
import re
import sys
from typing import NamedTuple

from .common import (CheckResult, GradingCase, GradingSpec, checks_passed,
                     monomial_grading_violations, verdict_lines)
from .dpalgebra import Heights
from .ffield import MAX_SPEC_DIGITS, FieldParams
from .liealg import (AlgebraDescriptor, Derivation, Family, closure_violations,
                     derivation_power_violations, realization_violations)


def _lazy(name: str):
    """The module `name`, in sys.modules now and executed on its first
    attribute read (importlib.util.LazyLoader): `verify` runs neither the
    switch nor the loop algebra, and `switch` does not run the loop algebra."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


grading = _lazy(f"{__package__}.grading")
loopalg = _lazy(f"{__package__}.loopalg")

#: Largest number of divided-power monomials p^(n1+n) a command accepts.
#: Every command builds its structure-constant table over all
#: (p^(n1+n))^2 ordered pairs, from per-axis binomial tables.  verify takes
#: about 0.085 s at 243 monomials, 0.16 s at 625 and at 729, and 0.44 s at
#: 961 (p = 31, most brackets nonzero): medians of 9 fresh processes
#: compiling from source (PYTHONDONTWRITEBYTECODE=1) on a 2-vCPU Xeon with
#: Python 3.11.7, of which interpreter start is 0.04 s.
MAX_MONOMIALS = 1000

#: Largest degree m of a `--field` p^m, refused before the irreducibility test
#: (m^3: 0.1 s at 64, 27.6 s at 400 over F_3); the default F_{p^p} has m <= 31.
MAX_FIELD_DEGREE = 64


class UsageError(Exception):
    pass


class RunConfig(NamedTuple):
    command: str
    p: int
    n: int
    s: int
    n1: int
    family: Family
    case: str
    field: FieldParams
    pi: object
    sigma: object
    spec: GradingSpec  # the pre-switch grading; a switched case grades by spec.switched()
    max_degree: int | None
    fmt: str
    allow_negative_control: bool


def standard_modulus(p: int) -> tuple:
    """Low-to-high coefficients of t^p - t - 1."""
    return tuple([p - 1, p - 1] + [0] * (p - 2) + [1])


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="thinlie",
        description="exact construction and verification of thin graded "
                    "Lie algebra patterns",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("verify", "algebra axioms, derivation laws, pre-switch grading"),
        ("switch", "grading switch, closed basis, product tables"),
        ("analyze", "loop expansion and diamond-pattern report"),
    ):
        sp = sub.add_parser(name, help=blurb)
        sp.add_argument("--p", type=int, required=True, help="odd prime")
        sp.add_argument("--n", type=int, required=True, help="second exponent height")
        sp.add_argument("--s", type=int, default=None, help="derivation step")
        if name == "verify":
            sp.add_argument("--n1", type=int, default=None,
                            help="first exponent height (default: --n)")
        analyze = name == "analyze"  # its cases differ in which options they read
        if name != "switch":  # a switched case fixes its family
            sp.add_argument("--family", choices=[f.value for f in Family], default=None,
                            help="family of --case preswitch" if analyze else None)
        if name != "verify":  # verify checks the algebra over F_p, before any switch
            sp.add_argument("--case",
                            choices=["preswitch", "big-field", "prime-field"],
                            default=None)
            sp.add_argument("--field", default=None,
                            help="coefficient field as p^m:c0,...,cm")
            sp.add_argument("--pi", default=None, help="switching parameter pi" + (
                "; read by big-field, prime-field and graded-hamiltonian preswitch"
                if analyze else ""))
            sp.add_argument("--sigma", default=None, help="switching parameter sigma" + (
                "; read by big-field and prime-field" if analyze else ""))
        if analyze:
            sp.add_argument("--max-degree", type=int, default=None)
        sp.add_argument("--format", choices=["text", "json"], default="text",
                        dest="fmt")
        if name != "verify":
            sp.add_argument("--allow-negative-control", action="store_true",
                            help="accept pi = 0; read wherever --pi is" if analyze else None)
    return ap


def _check_digits(option: str, text: str | None) -> None:
    """Refuse option text holding a number longer than int() reads from text."""
    if text is not None and max(map(len, re.findall(r"\d+", text)), default=0) > MAX_SPEC_DIGITS:
        raise UsageError(f"{option} numbers have at most {MAX_SPEC_DIGITS} digits")


def materialize(ns: argparse.Namespace) -> RunConfig:
    command = ns.command
    p, n = ns.p, ns.n
    if n < 1:
        raise UsageError("n must be >= 1")

    case = "preswitch" if command == "verify" else ns.case
    if case is None:
        raise UsageError(f"{command} needs --case")
    if command == "switch" and case == "preswitch":
        raise UsageError(f"{command} needs a switched case (big-field or prime-field)")

    # verify takes none of the switch's options, and switch takes no --family
    family_text, field_text, pi_text, sigma_text, allow_negative_control = (
        getattr(ns, name, None)
        for name in ("family", "field", "pi", "sigma", "allow_negative_control"))
    where = f"the {case} case"
    if case == "preswitch":
        if family_text is None:
            raise UsageError("--family is required here")
        family = Family(family_text)
        # sigma enters only through the switch, and only the graded
        # Hamiltonian pre-switch degree is twisted by pi
        unread = {"--sigma": sigma_text}
        if family is Family.ALBERT_ZASSENHAUS:
            where += f" on {family.value}"
            unread.update({"--pi": pi_text, "--allow-negative-control": allow_negative_control})
    else:  # a switched case fixes its family
        family = Family.ALBERT_ZASSENHAUS if case == "big-field" else Family.GRADED_HAMILTONIAN
        unread = {"--family": family_text}
    for option, value in unread.items():
        if value not in (None, False):
            raise UsageError(f"{where} does not read {option}")

    if command == "verify":
        n1 = ns.n1 if ns.n1 is not None else n
        if n1 < 1:
            raise UsageError("n1 must be >= 1")
        s = ns.s if ns.s is not None else n1 - 1
        if s < 0:
            raise UsageError("s must be >= 0")
    else:
        s = ns.s if ns.s is not None else 1
        if s < 0:
            raise UsageError("s must be >= 0")
        n1 = s + 1
    k = n1 + n  # |p| >= 2 exceeds the budget at any k above its bit length
    if (abs(p) > 1 and k > MAX_MONOMIALS.bit_length()) or p ** k > MAX_MONOMIALS:
        raise UsageError(f"p^(n1+n) = {p}^{k} monomials exceed the "
                         f"budget of {MAX_MONOMIALS}")

    try:
        if field_text is not None:
            _check_digits("--field", field_text)
            m = field_text.strip().partition(":")[0].partition("^")[2]
            if m.isdigit() and int(m) > MAX_FIELD_DEGREE:
                raise UsageError(f"--field degree {int(m)} is above {MAX_FIELD_DEGREE}")
            field = FieldParams.parse_spec(field_text)
            if field.p != p:
                raise UsageError("--field characteristic disagrees with --p")
        elif case == "big-field":
            field = FieldParams(p, p, standard_modulus(p))
        else:
            field = FieldParams.prime(p)
    except ValueError as e:
        raise UsageError(str(e)) from None
    if case == "big-field" and field.m < 2:
        raise UsageError("the big-field case needs a proper field extension")

    _check_digits("--sigma", sigma_text)
    _check_digits("--pi", pi_text)
    try:
        if sigma_text is not None:
            sigma = field.parse_element(sigma_text)
        else:
            sigma = field.one()
        if pi_text is not None:
            pi = field.parse_element(pi_text)
        elif case == "big-field":
            pi = field.gen()
        else:
            pi = field.one()
    except ValueError as e:
        raise UsageError(str(e)) from None
    if sigma.is_zero():
        raise UsageError("sigma must be nonzero")
    if pi.is_zero() and not allow_negative_control:
        raise UsageError("pi = 0 is the negative control; pass --allow-negative-control")
    heights = Heights(p, n1, n)
    if family is Family.ALBERT_ZASSENHAUS:
        spec = GradingSpec(GradingCase.PRESWITCH_AZ, heights, n1 - 1)
    elif pi.in_prime_field():
        spec = GradingSpec(GradingCase.PRESWITCH_GH, heights, n1 - 1, pi.as_int())
    else:
        raise UsageError(f"the {case} case needs pi in the prime subfield")

    max_degree = getattr(ns, "max_degree", None)  # an analyze option
    if max_degree is not None and max_degree < 1:
        raise UsageError("max-degree must be positive")
    if max_degree is not None and max_degree > 3 * MAX_MONOMIALS:  # the 3N default fits
        raise UsageError(f"max-degree must be at most {3 * MAX_MONOMIALS}")

    return RunConfig(command, p, n, s, n1, family, case, field, pi, sigma,
                     spec, max_degree, ns.fmt, bool(allow_negative_control))


def _emit(rc: RunConfig, params: dict, checks: dict, extra: dict, text_head: list):
    passed = checks_passed(checks)
    if rc.fmt == "json":
        import json  # only JSON output pays for the import
        doc = {"command": rc.command, "params": params, **extra}
        doc["checks"] = {name: c.to_json() for name, c in checks.items()}
        doc["overall"] = passed
        return int(not passed), json.dumps(doc, indent=2) + "\n"
    lines = ["params " + " ".join(f"{k}={v}" for k, v in params.items())]
    lines.extend(text_head)
    lines.extend(verdict_lines(checks))
    return int(not passed), "\n".join(lines) + "\n"


def _violation_payload(violations: list, limit: int = 5):
    if not violations:
        return None
    shown = [str(v) for v in violations[:limit]]
    return {"count": len(violations), "first": shown}


def cmd_verify(rc: RunConfig):
    desc = AlgebraDescriptor(rc.family, rc.field, rc.spec.heights)
    deriv = Derivation(desc, rc.s)
    expected_dim = rc.p ** (rc.n1 + rc.n) - (2 if rc.family is Family.GRADED_HAMILTONIAN else 0)
    suites = (
        ("anticommutativity", desc.anticommutativity),
        ("jacobi", desc.jacobi),
        ("closure", closure_violations(desc)),
        ("leibniz", deriv.leibniz),
        ("derivation_power", derivation_power_violations(deriv)),
        ("realization", realization_violations(deriv)),
        ("monomial_grading", monomial_grading_violations(desc, rc.spec)),
    )
    checks = {}
    checks["dimension"] = CheckResult(
        "dimension", desc.dim == expected_dim,
        None if desc.dim == expected_dim
        else {"dim": desc.dim, "expected": expected_dim},
    )
    for name, violations in suites:
        checks[name] = CheckResult(name, not violations,
                                   _violation_payload(violations))
    params = {
        "p": rc.p, "n1": rc.n1, "n2": rc.n, "s": rc.s,
        "family": rc.family.value, "field": rc.field.spec_string,
        "pi": str(rc.pi), "sigma": str(rc.sigma),
    }
    return _emit(rc, params, checks,
                 extra={"dimension": desc.dim},
                 text_head=[f"dimension {desc.dim}"])


def _switch_config(rc: RunConfig) -> "grading.SwitchConfig":
    return grading.SwitchConfig(rc.field, rc.sigma, rc.pi, rc.s,
                                allow_zero_pi=rc.allow_negative_control)


def _grading_params(rc: RunConfig, spec: GradingSpec) -> dict:
    return {
        "p": rc.p, "n": rc.n, "s": rc.s, "case": spec.case.value,
        "field": rc.field.spec_string, "pi": str(rc.pi),
        "sigma": str(rc.sigma), "N": spec.N, "q": spec.q,
    }


def cmd_switch(rc: RunConfig):
    desc = AlgebraDescriptor(rc.family, rc.field, rc.spec.heights)
    out_spec, cfg = rc.spec.switched(), _switch_config(rc)
    deriv = Derivation(desc, rc.s)
    raw = grading.switch_grading(desc, rc.spec, deriv, cfg)
    closed = grading.build_closed_basis(desc, out_spec, cfg)

    serialized = closed.serialize()
    parsed = grading.GradedBasis.parse(desc, out_spec, serialized)
    round_trip = (parsed.labels == closed.labels
                  and parsed.degrees == closed.degrees
                  and parsed.vectors == closed.vectors
                  and parsed.scalars == closed.scalars)

    graded_raw, graded_closed, link_bad, tables = grading.switch_checks(desc, raw, closed, cfg)
    checks = {}
    for name, violations in (
        ("graded_raw", [(a.text(), b.text(), w.text()) for a, b, w in graded_raw]),
        ("graded_closed", [(a.text(), b.text(), w.text()) for a, b, w in graded_closed]),
        ("scalar_link", [lab.text() for lab in link_bad]),
        ("product_tables", [(a.text(), b.text()) for a, b in tables]),
    ):
        checks[name] = CheckResult(name, not violations, _violation_payload(violations))
    checks["serialization_roundtrip"] = CheckResult(
        "serialization_roundtrip", round_trip, None)

    return _emit(rc, _grading_params(rc, out_spec), checks,
                 extra={"basis": serialized},
                 text_head=[serialized.rstrip("\n")])


def _generators(spec: GradingSpec, basis: "grading.GradedBasis"):
    """The two degree-1 basis vectors: j = -1 gives X, j = q-2 gives Y."""
    found = {lab.j: lab for lab in basis.active_labels
             if basis.degrees[lab] == 1}
    if sorted(found) != [-1, spec.q - 2]:
        raise ValueError(f"degree-1 labels {sorted(found.values())} do not "
                         "split into generators")
    return basis.vectors[found[-1]], basis.vectors[found[spec.q - 2]]


def cmd_analyze(rc: RunConfig):
    desc = AlgebraDescriptor(rc.family, rc.field, rc.spec.heights)
    if rc.case == "preswitch":
        spec, cfg = rc.spec, None
    else:
        spec, cfg = rc.spec.switched(), _switch_config(rc)
    floor = loopalg.degree_floor(spec)
    if rc.max_degree is not None and rc.max_degree < floor:
        raise UsageError(f"max-degree must be at least 2N + q = {floor}")
    if cfg is not None:
        # the switch behind the closed basis: refuse its hypothesis failures
        # as `switch` does, before any report
        grading.switch_hypotheses(desc, rc.spec, Derivation(desc, rc.s), cfg)
    basis = grading.build_closed_basis(desc, spec, cfg)
    X, Y = _generators(spec, basis)
    report = loopalg.run_analysis(desc, basis, X, Y, _grading_params(rc, spec),
                                  rc.max_degree, cfg)
    code = 0 if report.passed else 1
    out = report.to_json() if rc.fmt == "json" else loopalg.render_text(report)
    return code, out


COMMANDS = {
    "verify": cmd_verify,
    "switch": cmd_switch,
    "analyze": cmd_analyze,
}


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        rc = materialize(ns)
        code, out = COMMANDS[rc.command](rc)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if out:
        sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
