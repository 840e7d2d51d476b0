"""Acceptance gate: one test per shipped claim, exact arithmetic throughout.

Each criterion is a single test function so the -v run shows one pass/fail
line per claim.  Expected values are frozen from independent derivations;
runtime clauses are asserted where the claim carries one.
"""

import contextlib
import functools
import io
import json
import math
import time

from oracles import (
    apply_power,
    dense_anticommutativity_violations,
    dense_jacobi_violations,
    element_leibniz_violations,
)
from thinlie.cli import main
from thinlie.dpalgebra import Heights
from thinlie.ffield import FieldParams, lucas_binomial
from thinlie.grading import (
    GradingCase,
    GradingSpec,
    SwitchConfig,
    build_closed_basis,
    switch_checks,
    switch_grading,
    verify_product_tables,
)
from thinlie.liealg import (
    AlgebraDescriptor,
    Derivation,
    Family,
    anticommutativity_violations,
    derivation_power_violations,
    jacobi_violations,
    leibniz_violations,
    realization_violations,
)
from thinlie.loopalg import (
    INFINITY,
    LoopConfig,
    centralizer_chain,
    expand_loop,
    first_chain_check,
    second_chain_check,
)

F3 = FieldParams.prime(3)
F5 = FieldParams.prime(5)
F27 = FieldParams(3, 3, (2, 2, 0, 1))

GH, AZ = Family.GRADED_HAMILTONIAN, Family.ALBERT_ZASSENHAUS

# (family, field, heights, dimension) of the exhaustively checked algebras
AXIOM_CONFIGS = (
    (GH, F3, Heights(3, 1, 1), 7),
    (GH, F3, Heights(3, 2, 2), 79),
    (AZ, F3, Heights(3, 2, 1), 27),
    (AZ, F3, Heights(3, 2, 2), 81),
    (AZ, F5, Heights(5, 2, 1), 125),
)


@functools.cache
def descriptor(family, field, heights):
    return AlgebraDescriptor(family, field, heights)


@functools.cache
def switched_jobs():
    """The eight switched configurations shared by criteria 4, 5 and 11."""
    t = F27.gen()
    jobs = {}
    specs = [
        ("big p3 n2", AZ, F27, Heights(3, 2, 2), t, 0),
        ("big p3 n1", AZ, F27, Heights(3, 2, 1), t, 0),
    ]
    specs += [(f"prime p5 pi{v}", GH, F5, Heights(5, 2, 1), F5.element(v), v)
              for v in (1, 2, 3, 4)]
    specs += [(f"prime p3 pi{v}", GH, F3, Heights(3, 2, 2), F3.element(v), v)
              for v in (1, 2)]
    for name, family, field, h, pi, pihat in specs:
        desc = descriptor(family, field, h)
        s = h.n1 - 1
        pre_case = (GradingCase.PRESWITCH_AZ if family is AZ
                    else GradingCase.PRESWITCH_GH)
        out_case = (GradingCase.BIG_FIELD if family is AZ
                    else GradingCase.PRIME_FIELD)
        pre = GradingSpec(pre_case, h, s, pihat)
        out = GradingSpec(out_case, h, s, pihat)
        cfg = SwitchConfig(field, field.one(), pi, s)
        deriv = Derivation(desc, s)
        raw = switch_grading(desc, pre, deriv, cfg)
        closed = build_closed_basis(desc, out, cfg)
        jobs[name] = (desc, raw, closed, cfg)
    return jobs


@functools.cache
def analyze_json(args: tuple):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["analyze", *args, "--format", "json"])
    return code, json.loads(buf.getvalue())


@functools.cache
def analyze_text(args: tuple):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["analyze", *args])
    return code, buf.getvalue()


def diamond_index(doc):
    return {d["degree"]: d for d in doc["diamonds"]}


def test_criterion_01_algebra_axioms():
    start = time.monotonic()
    for family, field, h, _dim in AXIOM_CONFIGS:
        desc = descriptor(family, field, h)
        assert anticommutativity_violations(desc) == []
        assert jacobi_violations(desc) == []
    assert time.monotonic() - start < 120


def test_criterion_02_dimension_claims():
    for family, field, h, dim in AXIOM_CONFIGS:
        desc = descriptor(family, field, h)
        assert desc.dim == dim
        expected = field.p ** (h.n1 + h.n2) - (2 if family is GH else 0)
        assert desc.dim == expected
    assert descriptor(GH, F5, Heights(5, 2, 1)).dim == 123
    assert descriptor(GH, F3, Heights(3, 2, 1)).dim == 25


def test_criterion_03_derivation_laws():
    for family, field, h, _dim in AXIOM_CONFIGS:
        desc = descriptor(family, field, h)
        deriv = Derivation(desc, h.n1 - 1)
        assert deriv.has_closed_form
        assert deriv.leibniz == []  # kept for the power laws below
        # GH: D^p = 0; AZ: D^p diagonal with eigenvalue -j and D^(p^2) = D^p
        assert derivation_power_violations(deriv) == []
        p = field.p
        for m in desc.basis:
            v = desc.basis_element(m)
            dp = apply_power(deriv, v, p)
            if family is GH:
                assert dp.is_zero()
            else:
                assert dp == v.scale(-(m.j - 1))
                assert apply_power(deriv, dp, p * p - p) == dp


@functools.cache
def switch_results():
    """switch_checks of every switched job: graded_raw, graded_closed,
    scalar_link and product_tables violations from one bracket sweep."""
    return {name: switch_checks(*job) for name, job in switched_jobs().items()}


def test_criterion_04_switching_correctness():
    start = time.monotonic()
    for name, (_desc, raw, closed, _cfg) in switched_jobs().items():
        graded_raw, graded_closed, link, _tables = switch_results()[name]
        assert graded_raw == graded_closed == link == [], name
        for lab in closed.labels:
            scaled = raw.vectors[lab].scale(closed.scalars[lab])
            assert closed.vectors[lab] == scaled, (name, lab)
    assert time.monotonic() - start < 120


def test_criterion_05_product_tables():
    for name, (*_checks, tables) in switch_results().items():
        assert tables == [], name


def test_criterion_06_big_field_reproduction():
    start = time.monotonic()
    code, doc = analyze_json(("--case", "big-field", "--p", "3", "--n", "2",
                              "--s", "1", "--max-degree", "216"))
    assert code == 0
    assert doc["params"]["N"] == 72
    slots = set(range(1, 217, 8))
    assert {c["degree"] for c in doc["components"] if c["dim"] == 2} == slots
    dia = diamond_index(doc)
    assert set(dia) == slots
    finite = {9 + 24 * m for m in range(9)}
    cycle = ["2", "t^2+1", "2t^2"]
    for deg in sorted(slots - {1}):
        d = dia[deg]
        assert d["kind"] == "genuine", deg
        if deg in finite:
            assert d["type"] == cycle[((deg - 9) // 24) % 3], deg
        else:
            assert d["type"] == INFINITY, deg
    assert dia[9]["type"] == "2"  # -1 in F_27
    assert dia[33]["type"] == "t^2+1"  # nu = -1 + 1/pi
    assert not any(d["kind"] == "fake" for d in doc["diamonds"])
    assert sum(c["dim"] for c in doc["components"][:72]) == 81
    assert doc["checks"]["periodicity"]["pass"]
    for name, c in doc["checks"].items():
        if not c.get("informational"):
            assert c["pass"], name
    assert time.monotonic() - start < 180


def test_criterion_07_prime_field_reproduction():
    start = time.monotonic()
    code, doc = analyze_json(("--case", "prime-field", "--p", "5", "--n", "1",
                              "--s", "1", "--pi", "2", "--max-degree", "300"))
    assert code == 0
    assert doc["params"]["N"] == 100
    slots = set(range(1, 301, 4))
    assert {c["degree"] for c in doc["components"] if c["dim"] == 2} == \
        slots - {45 + 100 * k for k in range(3)} - {85 + 100 * k for k in range(3)}
    dia = diamond_index(doc)
    assert set(dia) == slots
    # delta = 1/2 = 3: finite types -1 + 3m mod 5, fakes where 0 or 1
    for m in range(15):
        deg = 5 + 20 * m
        value = (-1 + 3 * m) % 5
        d = dia[deg]
        if value in (0, 1):
            assert (d["kind"], d["type"]) == ("fake", value), deg
        else:
            assert (d["kind"], d["type"]) == ("genuine", str(value)), deg
    assert dia[5]["type"] == "4"  # -1 in F_5
    assert dia[25]["type"] == "2"  # nu = 2
    assert (dia[45]["kind"], dia[45]["type"]) == ("fake", 0)
    assert (dia[85]["kind"], dia[85]["type"]) == ("fake", 1)
    for deg in sorted(slots - {1} - {5 + 20 * m for m in range(15)}):
        assert dia[deg] == {"degree": deg, "kind": "genuine",
                            "type": INFINITY}
    assert sum(c["dim"] for c in doc["components"][:100]) == 123
    assert doc["checks"]["periodicity"]["pass"]
    for name, c in doc["checks"].items():
        if not c.get("informational"):
            assert c["pass"], name
    assert time.monotonic() - start < 180


def test_criterion_08_all_finite_at_s_zero():
    code, doc = analyze_json(("--case", "big-field", "--p", "3", "--n", "2",
                              "--s", "0"))
    assert code == 0
    for d in doc["diamonds"][1:]:
        assert d["kind"] in ("genuine", "fake"), d
        assert d["type"] != INFINITY, d
    assert doc["checks"]["type_progression"]["pass"]
    for name, c in doc["checks"].items():
        if not c.get("informational"):
            assert c["pass"], name


def test_criterion_09_pi_zero_negative_control():
    code, doc = analyze_json(("--case", "prime-field", "--p", "5", "--n", "1",
                              "--s", "1", "--pi", "0",
                              "--allow-negative-control"))
    assert code == 1
    cover = doc["checks"]["covering"]
    assert not cover["pass"]
    # dies exactly on the component of y (label (0,-1,0), degree q-1)
    assert cover["counterexample"] == [{
        "degree": 4,
        "representative": "(1)*x^(0)y^(1)",
        "image_with_X": "0",
        "image_with_Y": "0",
    }]
    failing = {n for n, c in doc["checks"].items() if not c["pass"]}
    assert failing == {
        "thinness", "covering", "diamond_positions", "type_progression",
        "second_diamond", "first_centralizer_chain",
        "second_centralizer_chain", "periodicity", "dimension_sum",
    }


def test_criterion_10_centralizer_chains():
    for args in (
        ("--case", "big-field", "--p", "3", "--n", "2", "--s", "1",
         "--max-degree", "216"),
        ("--case", "prime-field", "--p", "5", "--n", "1", "--s", "1",
         "--pi", "2", "--max-degree", "300"),
        ("--case", "big-field", "--p", "3", "--n", "2", "--s", "0"),
    ):
        code, doc = analyze_json(args)
        assert doc["checks"]["first_centralizer_chain"]["pass"]
        second = doc["checks"]["second_centralizer_chain"]
        assert second["pass"] and second.get("informational")
    # p = 5, q = 25 satisfies the hypotheses, so the second chain is asserted
    h = Heights(5, 2, 2)
    desc = descriptor(GH, F5, h)
    spec = GradingSpec(GradingCase.PRIME_FIELD, h, 1, pi_residue=1)
    cfg = SwitchConfig(F5, F5.one(), F5.one(), 1)
    basis = build_closed_basis(desc, spec, cfg)
    deg1 = {lab.j: lab for lab in basis.active_labels
            if basis.degrees[lab] == 1}
    X, Y = basis.vectors[deg1[-1]], basis.vectors[deg1[spec.q - 2]]
    loop = LoopConfig(desc, basis, X, Y, 2 * spec.q - 2)
    records = expand_loop(loop)
    chain = centralizer_chain(loop, records, 2 * spec.q - 3)
    assert first_chain_check(F5, chain, spec.q).passed
    second = second_chain_check(F5, chain, 5, spec.q)
    assert second.passed and not second.informational


def test_criterion_11_oracle_equivalences():
    for p in (3, 5):
        bound = 2 * p ** 2
        for n in range(bound + 1):
            for k in range(n + 1):
                assert lucas_binomial(n, k, p) == math.comb(n, k) % p
    for family, field, h in ((AZ, F27, Heights(3, 2, 1)),
                             (AZ, F5, Heights(5, 2, 1)),
                             (GH, F3, Heights(3, 2, 2))):
        assert realization_violations(
            Derivation(descriptor(family, field, h), h.n1 - 1)) == []
    for name in ("big p3 n1", "prime p5 pi2"):
        desc, _raw, closed, cfg = switched_jobs()[name]
        assert verify_product_tables(desc, closed, cfg) == [], name
    # the sparse law sweeps agree with the dense ones that visit every
    # pair and triple
    for family, field, h, _dim in AXIOM_CONFIGS:
        desc = descriptor(family, field, h)
        deriv = Derivation(desc, h.n1 - 1)
        assert anticommutativity_violations(desc) == dense_anticommutativity_violations(desc)
        assert jacobi_violations(desc) == dense_jacobi_violations(desc)
        assert leibniz_violations(deriv) == element_leibniz_violations(deriv)


# frozen from the output of the line-enumerating covering check
F3125_TIMELINE = """\
case=big-field p=5 n=1 s=0 N=20 q=5 field=5^5:4,4,0,0,0,1 sigma=1 pi=t
1:first
5:4
9:t^4+3
13:2t^4+2
17:3t^4+1
21:4t^4
25:4
29:t^4+3
33:2t^4+2
37:3t^4+1
41:4t^4
45:4
check thinness: pass
check covering: pass
check diamond_positions: pass
check finite_slot_positions: pass
check type_progression: pass
check second_diamond: pass
check normalization: pass
check first_centralizer_chain: pass
check second_centralizer_chain: pass (informational)
check periodicity: pass
check dimension_sum: pass
overall: pass
"""


def test_criterion_12_big_field_p5_reproduction():
    start = time.monotonic()
    code, out = analyze_text(("--case", "big-field", "--p", "5", "--n", "1",
                              "--s", "0", "--max-degree", "45", "--pi", "t"))
    assert code == 0
    assert out == F3125_TIMELINE
    assert time.monotonic() - start < 10


def test_criterion_13_big_field_p7_stretch():
    code, doc = analyze_json(("--case", "big-field", "--p", "7", "--n", "1",
                              "--s", "0"))
    assert code == 0
    assert doc["params"]["field"] == "7^7:6,6,0,0,0,0,0,1"
    for name, c in doc["checks"].items():
        if not c.get("informational"):
            assert c["pass"], name


VERIFY_243_CHECKS = ("dimension", "anticommutativity", "jacobi", "closure",
                     "leibniz", "derivation_power", "realization",
                     "monomial_grading")


def verify_243_text(n1, n2, s):
    return "".join(
        [f"params p=3 n1={n1} n2={n2} s={s} family=albert-zassenhaus "
         "field=3^1:0,1 pi=1 sigma=1\n", "dimension 243\n"]
        + [f"check {name}: pass\n" for name in VERIFY_243_CHECKS]
        + ["overall: pass\n"])


def verify_243_json(n1, n2, s):
    doc = {
        "command": "verify",
        "params": {"p": 3, "n1": n1, "n2": n2, "s": s,
                   "family": "albert-zassenhaus", "field": "3^1:0,1",
                   "pi": "1", "sigma": "1"},
        "dimension": 243,
        "checks": {name: {"pass": True} for name in VERIFY_243_CHECKS},
        "overall": True,
    }
    return json.dumps(doc, indent=2) + "\n"


def test_criterion_14_verify_dim_243():
    """The benchmark's verify jobs: exhaustive laws at dimension 243.

    Stdout is compared byte for byte with the output of the dense sweeps
    (frozen before the sparse ones replaced them).
    """
    start = time.monotonic()
    for n2, n1 in ((2, 3), (3, 2)):
        args = ["verify", "--family", "albert-zassenhaus", "--p", "3",
                "--n", str(n2), "--n1", str(n1)]
        for fmt, expected in (("text", verify_243_text), ("json", verify_243_json)):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(args + ["--format", fmt])
            assert code == 0
            assert buf.getvalue() == expected(n1, n2, n1 - 1)
    assert time.monotonic() - start < 10
