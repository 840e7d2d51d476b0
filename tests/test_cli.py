"""End-to-end command line behavior: flags, defaults, outputs, exit codes."""

import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import thinlie
from thinlie import cli, grading, liealg
from thinlie.cli import build_parser, main, materialize, standard_modulus
from thinlie.dpalgebra import Heights, Monomial, accumulate
from thinlie.ffield import FieldElement, FieldParams
from thinlie.grading import Label
from thinlie.liealg import AlgebraDescriptor, Family
from thinlie.loopalg import ThinReport


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def readme_examples() -> list:
    """(argv, shown lines) of each `$ thinlie ...` line in README.md's sh blocks."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    examples = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S):
        for chunk in re.split(r"^\$ thinlie ", block, flags=re.M)[1:]:
            command, *shown = chunk.rstrip("\n").split("\n")
            examples.append((shlex.split(command), shown))
    return examples


def test_readme_examples(capsys):
    """Each README example exits 0 and prints the lines shown, in order,
    with `...` standing for any run of skipped lines."""
    examples = readme_examples()
    assert [argv[0] for argv, _ in examples] == ["verify", "switch", "analyze"]
    for argv, shown in examples:
        pattern = "".join(r"(?:.*\n)*?" if line == "..." else re.escape(line) + "\n"
                          for line in shown)
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert re.fullmatch(pattern, out), argv


def test_standard_modulus():
    assert standard_modulus(3) == (2, 2, 0, 1)
    assert standard_modulus(5) == (4, 4, 0, 0, 0, 1)
    # t^p - t - 1 stays irreducible
    FieldParams(5, 5, standard_modulus(5))


def test_help_lists_three_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "{verify,switch,analyze}" in capsys.readouterr().out


def test_python_m_thinlie_runs_the_cli():
    src = os.path.dirname(os.path.dirname(thinlie.__file__))
    out = subprocess.run([sys.executable, "-m", "thinlie", "--help"],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert "{verify,switch,analyze}" in out.stdout


def test_verify_text(capsys):
    code, out, _ = run(capsys, "verify", "--p", "3", "--n", "1",
                       "--family", "graded-hamiltonian")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ("params p=3 n1=1 n2=1 s=0 family=graded-hamiltonian "
                        "field=3^1:0,1 pi=1 sigma=1")
    assert lines[1] == "dimension 7"
    assert "check jacobi: pass" in lines
    assert lines[-1] == "overall: pass"


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--p", "3", "--n", "1", "--n1", "2",
                       "--family", "albert-zassenhaus", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "verify"
    assert doc["dimension"] == 27
    assert doc["overall"] is True
    assert set(doc["checks"]) == {
        "dimension", "anticommutativity", "jacobi", "closure", "leibniz",
        "derivation_power", "realization", "monomial_grading",
    }
    assert all(c["pass"] for c in doc["checks"].values())


def test_switch_text(capsys):
    code, out, _ = run(capsys, "switch", "--case", "big-field",
                       "--p", "3", "--n", "1")
    assert code == 0
    assert "(-1,0,0) | 1 | " in out
    for name in ("graded_raw", "graded_closed", "scalar_link",
                 "product_tables", "serialization_roundtrip"):
        assert f"check {name}: pass" in out
    assert out.rstrip().endswith("overall: pass")


def test_switch_json_carries_basis(capsys):
    code, out, _ = run(capsys, "switch", "--case", "prime-field",
                       "--p", "3", "--n", "1", "--pi", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["params"]["case"] == "prime-field"
    assert doc["params"]["N"] == 18
    assert doc["basis"].count("\n") == 27
    assert doc["overall"] is True


# exit code and sha256 of stdout, frozen from the implementation that swept
# the brackets once per check
SWITCH_FROZEN = {
    "big p3 n1": (("--case", "big-field", "--p", "3", "--n", "1", "--s", "1"), 0,
                  "74876f0421c42fc0099e0aa5c236be0e1d5ec0fe3a190b14d76fead57b9c0ada",
                  "b75904f7c0fa16477b8abc42051c2825a0f349f65edb72e4a15aee61253adb30"),
    "big p3 n2": (("--case", "big-field", "--p", "3", "--n", "2", "--s", "1"), 0,
                  "6c46fedf94fcc13cf9b50aca7e025d7cff494935ecdfacf3e65ee44570f6db32",
                  "29a7bef8e8dcca9c3984375e7a60396819bb7be3aae14f35e9227e19b3fa4bf5"),
    "prime p3 pi2": (("--case", "prime-field", "--p", "3", "--n", "1", "--pi", "2"), 0,
                     "9a9c1724c7a5f74738b4bbd0dc83fffd3d316d21874212b1659c4d1f0997387d",
                     "59cf3f9fdda56949fb7db6fbb3e89b4d78fa92294dbfd99e2935ef4b59d5bb4e"),
    "prime p5 pi2": (("--case", "prime-field", "--p", "5", "--n", "1", "--s", "1",
                      "--pi", "2"), 0,
                     "87c9ed70d901aafa68baa2ab0c27c59ec6a4291c4bfcf04939751b43efb934ee",
                     "275232ada7cf982a79237e02bef3e6ca99fa5905d935efc17d5595996d6936ce"),
    "prime p3 n2 pi0": (("--case", "prime-field", "--p", "3", "--n", "2", "--s", "1",
                         "--pi", "0", "--allow-negative-control"), 0,
                        "471f98aa4b7b327e5c2c3f1bf87b1fcd34aee71893aad5a40c56cb5e0b0f2e25",
                        "050858493553b7d6268eeb2cf8afc086843551b49b15c3bc12ba1cdb47359dbf"),
    # sigma != 1 on the eigenvalue route, frozen once the raw switch took
    # alpha = c pi (c the eigenvalue of D^p); c sigma^p pi failed graded_raw
    "big p3 n1 pi2t sigma2": (("--case", "big-field", "--p", "3", "--n", "1",
                               "--pi", "2t", "--sigma", "2"), 0,
                              "1c2e250c0563db209c23b60f1039bd9549809cf39fe5ad712c80a95fe1ec7f48",
                              "a657d39db6c9faef835131c35e07052dfdd85605db39e337fc31bfa396c9b48f"),
    # the benchmark's switch-big243 variants, frozen from the pair sweep
    # before the generator certificate replaced it on passing runs
    "big p3 n2 s2 pi t+0": (("--case", "big-field", "--p", "3", "--n", "2", "--s", "2",
                             "--pi", "t+0"), 0,
                            "40e99ddd596bd9f66e0d1de816be8f8d30ab26ab880e266040130ef297d26fd1",
                            "80f722bb4bac7dd0f396a4bdfffdb9da32c6d6d2de9f07b26748e3332c14b834"),
    "big p3 n2 s2 pi t+1": (("--case", "big-field", "--p", "3", "--n", "2", "--s", "2",
                             "--pi", "t+1"), 0,
                            "575491bb0521e8412ecc8d602d4e2672eb04e12a3d3d6d8244697be9614e7ba8",
                            "0ee106730db3a354b2fc9d5c30bd726e906494c9bad878e756d8173cd80380f3"),
    "big p3 n2 s2 pi t+2": (("--case", "big-field", "--p", "3", "--n", "2", "--s", "2",
                             "--pi", "t+2"), 0,
                            "66c5dff0c6df3122cada500ac9d845c007faec2e076259aa460e6871e075a64a",
                            "658d6ef48520c5e87934798b05e4b2068b79c41756e8bb569d094a50be617d97"),
}


@pytest.mark.parametrize("name", sorted(SWITCH_FROZEN))
def test_switch_stdout_frozen(capsys, name):
    args, code, text_sha, json_sha = SWITCH_FROZEN[name]
    for fmt, digest in (("text", text_sha), ("json", json_sha)):
        got, out, err = run(capsys, "switch", *args, "--format", fmt)
        assert (got, hashlib.sha256(out.encode()).hexdigest(), err) == (code, digest, ""), fmt


# exit code and sha256 of stdout, frozen from the implementation that
# built the table from every ordered pair and swept every chained triple
VERIFY_FROZEN = {
    "az p3 n2 n1 3": (("--family", "albert-zassenhaus", "--p", "3", "--n", "2", "--n1", "3"), 0,
                      "7d3ae1a8578c76fdb6743ec27c6753fef0744d27a8794ac80db16449f388e4cf",
                      "8857ed7ce979bbeb40aa0095a3d2658078fa5bc50df3103c0455c014ce4822e9"),
    "az p3 n3 n1 2": (("--family", "albert-zassenhaus", "--p", "3", "--n", "3", "--n1", "2"), 0,
                      "ebe01304d99c75fc4e9db782343b91a7099fee01be3453316cccb3d4c08c65bc",
                      "f835b30a4965af76e96e6ce2e35d1e7eced437fcefda69b2ad77f84fae6cd8d6"),
    "gh p3 n2": (("--family", "graded-hamiltonian", "--p", "3", "--n", "2"), 0,
                 "42ef79a6948c30b64d00f229fb90e242209a3e85701a857a7066ba06db099421",
                 "42d3b840731d0a49d75c58f2f6b25e5c826a983e46c8554448acceaf2984507e"),
    "az p5 n1": (("--family", "albert-zassenhaus", "--p", "5", "--n", "1"), 0,
                 "0d7cee5ff23b8d6bb63211604bf80c474b462ba0b843feee992e1c914ac457d4",
                 "33b0a52eaed84b92ac7bd1bb0cec7d1263bba309be320b3d950335791e4fa589"),
    # n1 = 2 != s + 1: D is the iterated row of y, with no power law
    "az p3 n1 n1 2 s0": (("--family", "albert-zassenhaus", "--p", "3", "--n", "1",
                          "--n1", "2", "--s", "0"), 0,
                         "7daa79ec94213cfc89f486a2912e935ac16c2714a665dfb0522af493ab6c6af2",
                         "4c88670d0b82f817dd3a9bedf35ee7ed8299ad296f279b42d95ff8a1e042fe2e"),
}


@pytest.mark.parametrize("name", sorted(VERIFY_FROZEN))
def test_verify_stdout_frozen(capsys, name):
    args, code, text_sha, json_sha = VERIFY_FROZEN[name]
    for fmt, digest in (("text", text_sha), ("json", json_sha)):
        got, out, err = run(capsys, "verify", *args, "--format", fmt)
        assert (got, hashlib.sha256(out.encode()).hexdigest(), err) == (code, digest, ""), fmt


def test_verify_sweeps_jacobi_only_when_the_certificate_fails(capsys, monkeypatch):
    """The chained-triple sweep runs zero times on a true algebra, once on a
    planted anticommutative Jacobi failure, and straight away, without the
    certificate, when the anticommutativity list passed in is not empty."""
    calls, sweep = [], liealg._jacobi_sweep

    def counted(desc):
        calls.append(1)
        return sweep(desc)
    monkeypatch.setattr(liealg, "_jacobi_sweep", counted)
    code, _, _ = run(capsys, "verify", "--family", "albert-zassenhaus",
                     "--p", "3", "--n", "2", "--n1", "3")
    assert (code, len(calls)) == (0, 0)
    desc = AlgebraDescriptor(Family.ALBERT_ZASSENHAUS, FieldParams.prime(3), Heights(3, 2, 1))
    a, b = desc._index[Monomial(1, 1)], desc._index[Monomial(2, 1)]
    desc.table[a][b], desc.table[b][a] = (1, a), (2, a)  # [xy, x^(2)y] = xy
    anticommutativity = liealg.anticommutativity_violations(desc)
    assert anticommutativity == []
    assert len(liealg.jacobi_violations(desc, anticommutativity)) == 25
    assert len(calls) == 1
    monkeypatch.setattr(liealg, "monomial_generators", None)  # the certificate would call it
    desc = AlgebraDescriptor(Family.GRADED_HAMILTONIAN, FieldParams.prime(3), Heights(3, 1, 1))
    assert liealg.jacobi_violations(desc, [(desc.basis[0], desc.basis[0])]) == []
    assert len(calls) == 2


def test_verify_checks_anticommutativity_once(capsys, monkeypatch):
    """cmd_verify passes its anticommutativity list to jacobi_violations
    instead of computing it a second time there."""
    calls, check = [], liealg.anticommutativity_violations

    def counted(desc):
        calls.append(1)
        return check(desc)
    monkeypatch.setattr(liealg, "anticommutativity_violations", counted)
    monkeypatch.setattr(cli, "anticommutativity_violations", counted)
    code, out, _ = run(capsys, "verify", "--family", "albert-zassenhaus",
                       "--p", "3", "--n", "2", "--n1", "3")
    assert (code, len(calls)) == (0, 1)
    assert "check jacobi: pass" in out.splitlines()


def test_verify_large_s_finishes(capsys):
    """D = (ad y)^(p^s) is built from s successive p-th powers that stop at
    a fixed point, so a huge s costs no more than a small one.  Here the
    powers of ad y are fixed from s = 1 on, so the checks agree with s = 3."""
    args = ("verify", "--family", "albert-zassenhaus", "--p", "3", "--n", "1")
    code, small, _ = run(capsys, *args, "--s", "3")
    assert code == 0
    for s in ("40", "100000"):
        code, out, err = run(capsys, *args, "--s", s)
        assert (code, err) == (0, "")
        assert out.splitlines()[1:] == small.splitlines()[1:]
        assert f" s={s} " in out.splitlines()[0]


def test_switch_brackets_each_pair_once(capsys, monkeypatch):
    """A passing switch brackets each generator X, Y with every basis
    vector once, 2 x dim brackets (the pair sweep took dim(dim+1)/2: 378 at
    dim 27 and 3321 at dim 81)."""
    calls, bracket = [], AlgebraDescriptor.bracket

    def counted(self, u, v):
        calls.append(1)
        return bracket(self, u, v)
    monkeypatch.setattr(AlgebraDescriptor, "bracket", counted)
    for n, dim in (("1", 27), ("2", 81)):
        calls.clear()
        code, _, _ = run(capsys, "switch", "--case", "big-field", "--p", "3", "--n", n)
        assert code == 0
        assert len(calls) == 2 * dim, n


def test_switch_checks_anticommutativity_once(capsys, monkeypatch):
    """One switch run computes anticommutativity once, also when the
    scalar link fails and the raw basis is swept on its own: a closed
    scalar doubled at one label breaks the link."""
    calls, check = [], liealg.anticommutativity_violations
    build, broken = cli.build_closed_basis, [False]

    def counted(desc):
        calls.append(1)
        return check(desc)

    def closed_basis(*args):
        closed = build(*args)
        if broken[0]:
            lab = Label(0, 0, 1)
            closed.scalars[lab] = closed.scalars[lab] * 2
        return closed
    for module in (liealg, grading, cli):
        monkeypatch.setattr(module, "anticommutativity_violations", counted)
    monkeypatch.setattr(cli, "build_closed_basis", closed_basis)
    for broken[0], code in ((False, 0), (True, 1)):
        calls.clear()
        got, out, _ = run(capsys, "switch", "--case", "big-field", "--p", "3", "--n", "1")
        assert got == code
        assert ("check scalar_link: FAIL" in out) == broken[0]
        assert len(calls) == 1, broken[0]


@settings(max_examples=10, deadline=None)
@given(st.sampled_from([3, 5]), st.data())
def test_switch_and_analyze_pass_for_every_sigma(p, data):
    """Over F_p[t]/(t^p - t - 1), sigma in F_p^* and pi = sigma^-1 t + c,
    c in F_p, are the p roots of (pi^p - pi) sigma^p = 1: at s = 0 and
    n = 1, switch (which sweeps the raw Laguerre basis) and analyze pass
    every check, the informational one included."""
    field = FieldParams(p, p, standard_modulus(p))
    sigma = data.draw(st.integers(1, p - 1))
    c = data.draw(st.integers(0, p - 1))
    pi = field.element(sigma).inverse() * field.gen() + c
    args = ("--case", "big-field", "--p", str(p), "--n", "1", "--s", "0",
            "--pi", str(pi), "--sigma", str(sigma))
    for command in ("switch", "analyze"):
        buf, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            code = main([command, *args])
        checks = [line for line in buf.getvalue().splitlines() if line.startswith("check ")]
        assert (code, err.getvalue()) == (0, ""), (command, args)
        assert checks and all(": pass" in line for line in checks), (command, args)


def test_switch_field_multiplies_linear_in_dim(capsys, monkeypatch):
    """switch_checks multiplies FieldElements only to set up the product
    rules, fewer times than there are basis vectors: brackets, scalings and
    echelon steps run on integer coordinates (the FieldElement sweep made
    6245 products at dim 27 and 45 201 at dim 81)."""
    counts, sweeping = [], [False]
    mul, switch_checks = FieldElement.__mul__, cli.switch_checks

    def counted(self, other):
        if sweeping[0]:
            counts.append(1)
        return mul(self, other)

    def swept(*args):
        sweeping[0] = True
        try:
            return switch_checks(*args)
        finally:
            sweeping[0] = False
    monkeypatch.setattr(FieldElement, "__mul__", counted)
    monkeypatch.setattr(FieldElement, "__rmul__", counted)
    monkeypatch.setattr(cli, "switch_checks", swept)
    for n, dim in (("1", 27), ("2", 81)):
        counts.clear()
        code, _, _ = run(capsys, "switch", "--case", "big-field", "--p", "3", "--n", n)
        assert code == 0
        assert 0 < len(counts) <= dim, n


def test_accumulate_sums_integers_only():
    assert accumulate({"a": 2}, [("a", 1), ("b", 4), ("c", -1)], 3) == {"b": 1, "c": 2}
    with pytest.raises(TypeError):  # no FieldElement branch
        accumulate({}, [("a", FieldParams(3, 3, (2, 2, 0, 1)).gen())], 3)
    with pytest.raises(TypeError):  # p is not optional
        accumulate({}, [("a", 1)])


def test_analyze_text_frozen(capsys):
    code, out, _ = run(capsys, "analyze", "--case", "big-field",
                       "--p", "3", "--n", "1", "--s", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ("case=big-field p=3 n=1 s=1 N=18 q=3 "
                        "field=3^3:2,2,0,1 sigma=1 pi=t")
    assert lines[1] == "1:first"
    assert lines[2] == "3:2"
    assert "9:t^2+1" in lines
    assert lines[-1] == "overall: pass"


def test_analyze_json_round_trips(capsys):
    code, out, _ = run(capsys, "analyze", "--case", "big-field",
                       "--p", "3", "--n", "1", "--format", "json")
    assert code == 0
    rep = ThinReport.from_json(out)
    assert rep.passed
    assert rep.params["N"] == 18
    assert rep.to_json() == out


def test_analyze_builds_one_descriptor(capsys, monkeypatch):
    """analyze builds the algebra descriptor once, switched or not."""
    calls, init = [], AlgebraDescriptor.__init__

    def counted(self, *args):
        calls.append(1)
        init(self, *args)
    monkeypatch.setattr(AlgebraDescriptor, "__init__", counted)
    for args in (("--case", "big-field"),
                 ("--case", "preswitch", "--family", "albert-zassenhaus")):
        calls.clear()
        code, _, _ = run(capsys, "analyze", *args, "--p", "3", "--n", "1")
        assert (code, len(calls)) == (0, 1), args


def test_analyze_preswitch(capsys):
    code, out, _ = run(capsys, "analyze", "--case", "preswitch",
                       "--family", "albert-zassenhaus", "--p", "3", "--n", "1")
    assert code == 0
    assert "case=preswitch-az" in out.splitlines()[0]
    # every finite slot reads -1 in the pre-switch pattern
    assert "3:2" in out
    assert "9:Infinity" not in out.splitlines()[2]


def test_analyze_negative_control(capsys):
    code, out, _ = run(capsys, "analyze", "--case", "prime-field",
                       "--p", "3", "--n", "1", "--pi", "0",
                       "--allow-negative-control")
    assert code == 1
    assert "check covering: FAIL" in out
    assert "overall: FAIL" in out


def test_byte_determinism(capsys):
    args = ("analyze", "--case", "prime-field", "--p", "3", "--n", "1",
            "--pi", "1", "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_usage_errors(capsys):
    cases = [
        ("analyze", "--p", "3", "--n", "1"),
        ("switch", "--case", "preswitch", "--family", "albert-zassenhaus",
         "--p", "3", "--n", "1"),
        ("analyze", "--case", "big-field", "--p", "3", "--n", "1",
         "--family", "graded-hamiltonian"),
        ("analyze", "--case", "prime-field", "--p", "3", "--n", "1",
         "--pi", "0"),
        ("analyze", "--case", "big-field", "--p", "3", "--n", "1",
         "--field", "5^1:0,1"),
        ("analyze", "--case", "prime-field", "--p", "3", "--n", "1",
         "--pi", "t"),
        ("verify", "--p", "4", "--n", "1", "--family", "albert-zassenhaus"),
        # below 2N + q = 39
        ("analyze", "--case", "big-field", "--p", "3", "--n", "1",
         "--max-degree", "38"),
        # 101^6 monomials, over the MAX_MONOMIALS budget
        ("verify", "--p", "101", "--n", "3", "--family", "albert-zassenhaus"),
    ]
    for args in cases:
        code, _, err = run(capsys, *args)
        assert code == 2, args
        assert err.startswith("error:"), args
    # n1 is s + 1 in the graded commands and only analyze bounds the degree,
    # so argparse refuses these options elsewhere
    for args, flag in [
        (("analyze", "--case", "big-field", "--p", "3", "--n", "1",
          "--s", "1", "--n1", "3"), "--n1"),
        (("switch", "--case", "big-field", "--p", "3", "--n", "1",
          "--n1", "3"), "--n1"),
        (("verify", "--family", "albert-zassenhaus", "--p", "3", "--n", "1",
          "--max-degree", "50"), "--max-degree"),
    ]:
        with pytest.raises(SystemExit) as exc:
            main(list(args))
        assert exc.value.code == 2, args
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err, args


def test_analyze_refuses_incompatible_switches_as_switch_does(capsys):
    """analyze checks the switching hypotheses before it builds the closed
    basis, so an incompatible (pi, sigma) exits 1 with the hypothesis
    failure of switch and prints no report, instead of stopping on an
    undefined closed-basis scalar (pi = 1) or reporting FAIL lines."""
    refusal = (1, "", "error: hypothesis failure: (pi^p - pi) sigma^p != 1\n")
    for extra in (("--pi", "1"), ("--pi", "t", "--sigma", "2"),
                  ("--pi", "0", "--allow-negative-control")):
        for command in ("switch", "analyze"):
            got = run(capsys, command, "--case", "big-field", "--p", "3", "--n", "1", *extra)
            assert got == refusal, (command, extra)


def test_runtime_failure_is_exit_one(capsys):
    code, _, err = run(capsys, "switch", "--case", "big-field",
                       "--p", "3", "--n", "1", "--sigma", "t")
    assert code == 1
    assert "hypothesis failure" in err


def test_verify_defaults():
    ns = build_parser().parse_args(
        ["verify", "--p", "3", "--n", "2", "--family", "graded-hamiltonian"]
    )
    rc = materialize(ns)
    assert (rc.case, rc.n1, rc.s) == ("preswitch", 2, 1)
    ns = build_parser().parse_args(
        ["analyze", "--case", "big-field", "--p", "3", "--n", "2"]
    )
    rc = materialize(ns)
    assert (rc.n1, rc.s) == (2, 1)
    assert rc.field.spec_string == "3^3:2,2,0,1"
    assert str(rc.pi) == "t" and str(rc.sigma) == "1"
    assert rc.pi_hat == 0  # t has no prime-field residue
    ns = build_parser().parse_args(
        ["analyze", "--case", "prime-field", "--p", "3", "--n", "1", "--pi", "2"]
    )
    assert materialize(ns).pi_hat == 2

