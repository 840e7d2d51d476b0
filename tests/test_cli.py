"""End-to-end command line behavior: flags, defaults, outputs, exit codes."""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import thinlie
from thinlie import cli, ffield, grading, laws, liealg, switch
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


def python310() -> tuple | None:
    """(the python3.10 on PATH, an environment in which it runs Python
    3.10), or None.  A pyenv shim answers only for enabled versions, so
    where it fails each 3.10 that `pyenv versions --bare` lists is tried
    as PYENV_VERSION."""
    exe, pyenv = shutil.which("python3.10"), shutil.which("pyenv")
    if exe is None:
        return None
    versions = pyenv and subprocess.run([pyenv, "versions", "--bare"], capture_output=True,
                                        text=True, timeout=60).stdout.split()
    for extra in [{}] + [{"PYENV_VERSION": v} for v in versions or ()
                         if v.split(".")[:2] == ["3", "10"]]:
        env = {**os.environ, **extra}
        probe = subprocess.run([exe, "-c", "import sys; assert sys.version_info[:2] == (3, 10)"],
                               env=env, capture_output=True, timeout=60)
        if probe.returncode == 0:
            return exe, env
    return None


def test_minimum_python_runs_the_readme_examples():
    """README and pyproject promise Python 3.10+.  Where a python3.10 on
    PATH runs, directly or under a pyenv 3.10 (`python310`), the README's
    verify and analyze examples exit 0 under it and print what they print
    under this interpreter."""
    found = python310()
    if found is None:
        pytest.skip("no runnable python3.10 on PATH")
    src = os.path.dirname(os.path.dirname(thinlie.__file__))
    for argv, _ in readme_examples():
        if argv[0] in ("verify", "analyze"):
            outs = [subprocess.run([python, "-m", "thinlie", *argv],
                                   env={**env, "PYTHONPATH": src},
                                   capture_output=True, text=True, timeout=120)
                    for python, env in (found, (sys.executable, os.environ))]
            assert [out.returncode for out in outs] == [0, 0], (argv, outs[0].stderr)
            assert outs[0].stdout == outs[1].stdout, argv


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


def test_each_subcommand_takes_only_the_options_it_reads():
    """verify checks the algebra over F_p before any switch, so it takes no
    case, field, pi, sigma or negative control; a switched case fixes its
    family, so switch takes no --family; analyze's --family picks the
    preswitch family, and its field and pi change its report."""
    sub, = [action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)]
    options = {name: {o for action in parser._actions for o in action.option_strings}
               - {"-h", "--help"} for name, parser in sub.choices.items()}
    assert options == {
        "verify": {"--p", "--n", "--n1", "--s", "--family", "--format"},
        "switch": {"--p", "--n", "--s", "--case", "--field", "--pi", "--sigma", "--format",
                   "--allow-negative-control"},
        "analyze": {"--p", "--n", "--s", "--family", "--case", "--field", "--pi", "--sigma",
                    "--max-degree", "--format", "--allow-negative-control"},
    }


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
    # GradedHamiltonian at s = 0 with 2 pi = -1 or pi = -1 mod p: one degree-1
    # label is a placeholder; frozen from the pair sweep that passed them
    "prime p3 n2 s0 pi1": (("--case", "prime-field", "--p", "3", "--n", "2", "--s", "0",
                            "--pi", "1"), 0,
                           "8d312f59f4a2f42767e26b528c24d7659a1b2c7b9fc85f478a93d4d43083f2de",
                           "cfaad8c06023c4a8e1bf0ae8ded6683829c73617a5a7e748d0d1ec73354772a3"),
    "prime p5 n1 s0 pi2": (("--case", "prime-field", "--p", "5", "--n", "1", "--s", "0",
                            "--pi", "2"), 0,
                           "6cf60afc722ca6a4f019b8059dfd620145ff5dc04afe41c3a461221b60d95b0f",
                           "789e545be51b73b8ced1af8127f7233c51ecea952adfc098302dea56c09bc35f"),
    # the paper's large big fields F_3125 and F_{7^7}, whose coefficients
    # print as sums of several powers of t; frozen before the fields
    # cached their inverses and element text
    "big p5 n1": (("--case", "big-field", "--p", "5", "--n", "1", "--s", "1"), 0,
                  "b3cdc91364476e6a8fc4f724db372932d3392254e7f794e19d8bc4f465501b4c",
                  "d1dbe186c40547e1fe0474f68f19e26a97d70a56f80a9a61306b16c16afc1dc4"),
    "big p7 n1": (("--case", "big-field", "--p", "7", "--n", "1", "--s", "1"), 0,
                  "c6fc7fa4554d61b9e71f7cbd3e23c097767cca1ff7276e20a08bbb28617f4e84",
                  "82e17c3b2b4f55c8d05d16088471c56f31eb71b56fcad00d24659ac9b5fdf094"),
    # frozen before the certificate checked the rule table once per label
    # class: GradedHamiltonian with its placeholders at s = 2, sigma != 1
    # over F_3 at s = 2, and sigma != 1 over F_3125
    "prime p3 n1 s2 pi1": (("--case", "prime-field", "--p", "3", "--n", "1", "--s", "2",
                            "--pi", "1"), 0,
                           "c787a7fbfd596389e4fc8b23daafebb912d69c8e610fe6539ad0b434634a8221",
                           "bd001e66bac966607357c8472555de59c291d85355098df0eebf19cdf7529ff8"),
    "prime p3 n2 s2 pi2 sigma2": (("--case", "prime-field", "--p", "3", "--n", "2",
                                   "--s", "2", "--pi", "2", "--sigma", "2"), 0,
                                  "8e735ab8a65fb36fa1665654fe20f7a37de9cdf74e8a845127d188e82f9bcff2",
                                  "0ab3a16b75b288b2722d1ecda0d9da78eef1a735dafa0c032270531b0c801a73"),
    "big p5 n1 s1 pi2t sigma3": (("--case", "big-field", "--p", "5", "--n", "1", "--s", "1",
                                  "--pi", "2t", "--sigma", "3"), 0,
                                 "fb9735f86252d3a06c8040ec0a479a60299b3eae436832022eccf65baeca8e43",
                                 "9b5a35d399df3a58a71a548bf27ece04b9958c735adf2bebe152a71f6ecf5a49"),
}


@pytest.mark.parametrize("name", sorted(SWITCH_FROZEN))
def test_switch_stdout_frozen(capsys, name):
    args, code, text_sha, json_sha = SWITCH_FROZEN[name]
    for fmt, digest in (("text", text_sha), ("json", json_sha)):
        got, out, err = run(capsys, "switch", *args, "--format", fmt)
        assert (got, hashlib.sha256(out.encode()).hexdigest(), err) == (code, digest, ""), fmt


def test_switch_passes_gh_s0_without_the_pair_sweep(capsys, monkeypatch):
    """The generator certificate decides every passing switch, so
    `_pair_sweep`, which brackets all dim^2 ordered pairs, runs only to
    name the violations of a failing one.  Where one degree-1 label is a
    placeholder, the certificate takes the labels X does not reach as
    further generators, so the frozen GradedHamiltonian s = 0 switches pass
    without the sweep too, as do the three big-field switches at dimension
    243 and the big field at p = 5."""
    calls, sweep = [], switch._pair_sweep

    def counted(*args):
        calls.append(1)
        return sweep(*args)
    monkeypatch.setattr(switch, "_pair_sweep", counted)
    for name in ("prime p3 n2 s0 pi1", "prime p5 n1 s0 pi2", "big p3 n2 s2 pi t+0",
                 "big p3 n2 s2 pi t+1", "big p3 n2 s2 pi t+2", "big p5 n1",
                 "prime p3 n1 s2 pi1", "prime p3 n2 s2 pi2 sigma2", "big p5 n1 s1 pi2t sigma3"):
        code, _, _ = run(capsys, "switch", *SWITCH_FROZEN[name][0])
        assert (code, calls) == (0, []), name


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
    certificate, on a table planted off anticommutativity."""
    calls, sweep = [], laws._jacobi_sweep

    def counted(desc):
        calls.append(1)
        return sweep(desc)
    monkeypatch.setattr(laws, "_jacobi_sweep", counted)
    code, _, _ = run(capsys, "verify", "--family", "albert-zassenhaus",
                     "--p", "3", "--n", "2", "--n1", "3")
    assert (code, len(calls)) == (0, 0)
    desc = AlgebraDescriptor(Family.ALBERT_ZASSENHAUS, FieldParams.prime(3), Heights(3, 2, 1))
    a, b = desc._index[Monomial(1, 1)], desc._index[Monomial(2, 1)]
    desc.table[a][b], desc.table[b][a] = (1, a), (2, a)  # [xy, x^(2)y] = xy
    assert desc.anticommutativity == []
    assert len(desc.jacobi) == 25
    assert len(calls) == 1
    monkeypatch.setattr(laws, "monomial_generators", None)  # the certificate would call it
    desc = AlgebraDescriptor(Family.GRADED_HAMILTONIAN, FieldParams.prime(3), Heights(3, 1, 1))
    a, b = desc._index[Monomial(1, 0)], desc._index[Monomial(0, 1)]
    desc.table[a][b] = (1, desc._index[Monomial(1, 1)])  # [x, y] = xy, [y, x] = 0
    assert desc.anticommutativity != []
    assert desc.jacobi == oracles.dense_jacobi_violations(desc)
    assert len(calls) == 2


def test_verify_decides_leibniz_on_generator_rows(capsys, monkeypatch):
    """A passing verify walks the generators once and runs the Leibniz
    kernel on their rows only, over every partner b; realization builds the
    iterated table once.  On the planted [xy, x^(2)y] = xy table of the
    Jacobi sweep test, anticommutative but not a Lie algebra, Leibniz sums
    every row and lists what the element sweep finds."""
    walks, visited, inside, iterated = [], [], [], []
    walk, kernel, leibniz, iterate = (laws.monomial_generators, laws.derivation_defects,
                                      laws.leibniz_violations, laws.iterated_table)

    def counted_walk(desc):
        walks.append(walk(desc))
        return walks[-1]

    def counted_kernel(rows, derivations, field, half=False, visit=None):
        if inside:
            visited.append((len(rows[0]) if visit is None else len(visit), half))
        return kernel(rows, derivations, field, half, visit)

    def counted_leibniz(*args):
        inside.append(1)
        try:
            return leibniz(*args)
        finally:
            inside.pop()

    def counted_iterate(desc, s):
        iterated.append(1)
        return iterate(desc, s)
    monkeypatch.setattr(laws, "monomial_generators", counted_walk)
    monkeypatch.setattr(laws, "leibniz_violations", counted_leibniz)
    monkeypatch.setattr(laws, "derivation_defects", counted_kernel)
    monkeypatch.setattr(laws, "iterated_table", counted_iterate)
    code, out, _ = run(capsys, "verify", "--family", "albert-zassenhaus",
                       "--p", "3", "--n", "2", "--n1", "3")
    assert (code, len(walks), visited, iterated) == (0, 1, [(len(walks[0]), False)], [1])
    assert "check realization: pass" in out.splitlines()
    desc = AlgebraDescriptor(Family.ALBERT_ZASSENHAUS, FieldParams.prime(3), Heights(3, 2, 1))
    a, b = desc._index[Monomial(1, 1)], desc._index[Monomial(2, 1)]
    desc.table[a][b], desc.table[b][a] = (1, a), (2, a)  # [xy, x^(2)y] = xy
    assert len(desc.jacobi) == 25
    deriv, visited[:] = liealg.Derivation(desc, 1), []
    assert deriv.leibniz == oracles.element_leibniz_violations(deriv)
    assert visited == [(desc.dim, False)]


def test_certificates_take_one_kernel_pass_each(capsys, monkeypatch):
    """The derivation kernel sums every generator of a certificate in one
    run.  A passing verify runs it twice: the Jacobi certificate with one
    ad g per generator over every row, and Leibniz on the generator rows.
    A passing switch runs it three times: the Jacobi certificate on T, and
    the rule certificate with X and Y twice, once on the class table C over
    every pair of classes and once per fibre on the three layers of T' over
    F_27, on the rows of the 27 labels at k = -1 against every label."""
    calls, kernel, walk, walks = [], laws.derivation_defects, laws.monomial_generators, []

    def counted_kernel(rows, derivations, field, half=False, visit=None):
        calls.append((len(rows), len(derivations), half, visit))
        return kernel(rows, derivations, field, half, visit)

    def counted_walk(desc):
        walks.append(walk(desc))
        return walks[-1]
    monkeypatch.setattr(laws, "derivation_defects", counted_kernel)
    monkeypatch.setattr(laws, "monomial_generators", counted_walk)
    for name in ("az p3 n2 n1 3", "az p3 n3 n1 2"):
        calls[:], walks[:] = [], []
        code, _, _ = run(capsys, "verify", *VERIFY_FROZEN[name][0])
        assert code == 0, name
        gens, = walks
        assert calls == [(1, len(gens), True, None), (1, 1, False, gens)], name
    calls[:], walks[:] = [], []
    code, _, _ = run(capsys, "switch", *SWITCH_FROZEN["big p3 n2 s2 pi t+0"][0])
    gens, = walks
    labels = [(j, k, a) for j in range(-1, 8) for k in range(-1, 8) for a in range(3)]
    low = [i for i, (_j, k, _a) in enumerate(labels) if k == -1]
    assert len(low) == 27
    assert (code, calls) == (0, [(1, len(gens), True, None), (1, 2, True, None),
                                 (3, 2, False, low)])


def test_verify_walks_every_source_for_the_laws_of_d(capsys, monkeypatch):
    """A passing verify powers D from every source: D^p, and D^(p^2) on
    AlbertZassenhaus, for the power law, then the s p-th powers of the row
    of y that `iterated_table` takes for the realization, on both
    families."""
    powered, power = [], liealg.table_power

    def counted_power(table, k, p):
        powered.append(None)
        return power(table, k, p)
    for module in (laws, liealg):  # the power law, and the powers of iterated_table
        monkeypatch.setattr(module, "table_power", counted_power)
    for name, calls in (("az p3 n2 n1 3", 2 + 2), ("gh p3 n2", 1 + 1)):
        powered[:] = []
        code, out, _ = run(capsys, "verify", *VERIFY_FROZEN[name][0])
        assert (code, powered) == (0, [None] * calls), name
        assert "check derivation_power: pass" in out.splitlines(), name
        assert "check realization: pass" in out.splitlines(), name


def test_verify_checks_anticommutativity_once(capsys, monkeypatch):
    """The descriptor keeps its anticommutativity verdict, so Jacobi and
    Leibniz read it without computing it again."""
    calls, check = [], laws.anticommutativity_violations

    def counted(desc):
        calls.append(1)
        return check(desc)
    monkeypatch.setattr(laws, "anticommutativity_violations", counted)
    code, out, _ = run(capsys, "verify", "--family", "albert-zassenhaus",
                       "--p", "3", "--n", "2", "--n1", "3")
    assert (code, len(calls)) == (0, 1)
    assert "check jacobi: pass" in out.splitlines()


PERFBENCH = Path(__file__).parents[1] / "perfbench"


def perfbench_module(name: str):
    """A module of the benchmark's own files, loaded from its path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_jobs_span_each_law_once(tmp_path):
    """The benchmark's traced child runs verify-az243 (both variants) and
    switch-big243 at pi = t with every trace target resolved, and sees
    each law once: a law moved out of the tracer's reach would leave its
    per-layer metrics at zero."""
    tracing, workloads = perfbench_module("tracing"), perfbench_module("workloads")
    verify = workloads.WORKLOADS["verify-az243"].all_argvs()
    switching = [workloads.WORKLOADS["switch-big243"].argv_of(0)]
    assert switching[0][-2:] == ["--pi", "t+0"]
    spans = ["liealg." + name for name in ("anticommutativity", "jacobi", "closure", "leibniz",
                                           "derivation_power", "realization")]
    src = os.path.dirname(os.path.dirname(thinlie.__file__))
    for argvs, names in ((verify, spans), (switching, ["liealg.anticommutativity",
                                                       "grading.check_graded"])):
        for argv in argvs:
            dump = tmp_path / "trace.bin"
            out = subprocess.run([sys.executable, str(PERFBENCH / "child.py"), "traced",
                                  str(dump), *argv],
                                 env={**os.environ, "PYTHONPATH": src},
                                 capture_output=True, text=True, timeout=120)
            assert (out.returncode, out.stderr) == (0, ""), argv
            trace = tracing.load(dump)
            assert trace.header["missing"] == [], argv
            assert {name: trace.span_counts.get(name, 0) for name in names} == dict.fromkeys(
                names, 1), argv


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
    calls, check = [], laws.anticommutativity_violations
    build, broken = grading.build_closed_basis, [False]

    def counted(desc):
        calls.append(1)
        return check(desc)

    def closed_basis(*args):
        closed = build(*args)
        if broken[0]:
            lab = Label(0, 0, 1)
            closed.scalars[lab] = closed.scalars[lab] * 2
        return closed
    monkeypatch.setattr(laws, "anticommutativity_violations", counted)
    monkeypatch.setattr(grading, "build_closed_basis", closed_basis)
    for broken[0], code in ((False, 0), (True, 1)):
        calls.clear()
        got, out, _ = run(capsys, "switch", "--case", "big-field", "--p", "3", "--n", "1")
        assert got == code
        assert ("check scalar_link: FAIL" in out) == broken[0]
        assert len(calls) == 1, broken[0]


def ranked_bases(monkeypatch) -> tuple[list, list]:
    """(the bases `GradedBasis.validate_rank` runs on, in call order; the
    closed bases `grading.build_closed_basis` returns), both filled as a run goes."""
    ranked, closed = [], []
    validate, build = grading.GradedBasis.validate_rank, grading.build_closed_basis

    def counted(self, desc):
        ranked.append(self)
        return validate(self, desc)

    def built(*args):
        closed.append(build(*args))
        return closed[-1]
    monkeypatch.setattr(grading.GradedBasis, "validate_rank", counted)
    monkeypatch.setattr(grading, "build_closed_basis", built)
    return ranked, closed


def test_passing_runs_check_one_rank(capsys, monkeypatch):
    """A passing switch checks one rank, the closed basis's, in
    `build_closed_basis`: the scalar link shows each raw vector to be a
    closed one over a nonzero scalar, so the raw basis is independent too.
    analyze checks the one basis it builds."""
    ranked, closed = ranked_bases(monkeypatch)
    for command, args in (("switch", SWITCH_FROZEN["big p3 n2 s2 pi t+0"][0]),
                          ("switch", SWITCH_FROZEN["prime p5 n1 s0 pi2"][0]),
                          ("analyze", ANALYZE_FROZEN["big p5 n1 s0 max45 pi t+0"][0])):
        ranked[:], closed[:] = [], []
        code, _, _ = run(capsys, command, *args)
        assert code == 0, args
        assert len(closed) == 1 and ranked == closed, args


def test_switch_checks_the_raw_rank_without_the_link(capsys, monkeypatch):
    """The raw basis's rank is checked on its own only when the scalar link
    fails.  A closed scalar doubled at one label breaks the link: the raw
    rank is checked after the closed one, and the output keeps the bytes
    the two-rank-check implementation printed.  A raw vector replaced by a
    multiple of another breaks the link too, and its rank check exits 1
    naming the dependent label."""
    ranked, closed = ranked_bases(monkeypatch)
    build, switch_grading = grading.build_closed_basis, switch.switch_grading

    def doubled(*args):
        basis = build(*args)
        lab = Label(0, 0, 1)
        basis.scalars[lab] = basis.scalars[lab] * 2
        return basis
    with monkeypatch.context() as m:
        m.setattr(grading, "build_closed_basis", doubled)
        for fmt, digest in (
                ("text", "c4535f9d034799e573f96fb6ee792dccf55ab5712239b968da2ce1589b906719"),
                ("json", "64bf8c4722aba96af838d87cec42c35ed941fb8c7531df730a0becee5e8ad022")):
            ranked[:], closed[:] = [], []
            got, out, err = run(capsys, "switch", "--case", "big-field", "--p", "3", "--n", "1",
                                "--format", fmt)
            assert (got, hashlib.sha256(out.encode()).hexdigest(), err) == (1, digest, ""), fmt
            assert len(closed) == 1 and len(ranked) == 2 and ranked[0] is closed[0], fmt
            assert ranked[1].spec.case is grading.GradingCase.BIG_FIELD, fmt

    def dependent(*args):
        raw = switch_grading(*args)
        raw.vectors[Label(0, 0, 1)] = raw.vectors[Label(0, 0, 2)].scale(2)
        return raw
    monkeypatch.setattr(switch, "switch_grading", dependent)
    ranked[:], closed[:] = [], []
    got = run(capsys, "switch", "--case", "big-field", "--p", "3", "--n", "1")
    assert got == (1, "", "error: basis vector at label Label(j=0, k=0, a=2) is dependent\n")
    assert len(ranked) == 2 and ranked[0] is closed[0]


def test_switch_powers_d_p_from_every_source(capsys, monkeypatch):
    """switch_hypotheses powers D's map for D^p, then D^p's map for
    D^(p^2), each from every source.  On switch-big243 D^p is diagonal
    with nonzero entries, so D^(p^2) has an entry at every source of D^p."""
    powered, power = [], grading.table_power

    def counted(table, k, p):
        powered.append((k, table, power(table, k, p)))
        return powered[-1][2]
    monkeypatch.setattr(grading, "table_power", counted)
    code, _, _ = run(capsys, "switch", *SWITCH_FROZEN["big p3 n2 s2 pi t+0"][0])
    (k1, _d, dp), (k2, dp_again, dp2) = powered
    assert (code, k1, k2, dp_again) == (0, 3, 3, dp)
    assert sorted(dp2) == sorted(dp) != []
    assert all(k == i for i, (_c, k) in dp.items())


def test_switch_keeps_the_shorter_generator_walk(capsys, monkeypatch):
    """The rule certificate walks the degree-1 labels and then index order;
    when that takes more than two generators, it walks the degree-1 labels
    and then j + k descending too and keeps the shorter list.  On the
    GradedHamiltonian switch at p = 5, s = 0, pi = 2 the second walk takes
    3 generators where the first took 9, and the output keeps its frozen
    bytes.  switch-big243, where X and Y generate, walks once."""
    calls, walks, kernel, walk = [], [], laws.derivation_defects, switch.table_generators

    def counted_kernel(rows, derivations, field, half=False, visit=None):
        calls.append(len(derivations))
        return kernel(rows, derivations, field, half, visit)

    def counted_walk(rows, candidates):
        walks.append(walk(rows, candidates))
        return walks[-1]
    monkeypatch.setattr(laws, "derivation_defects", counted_kernel)
    monkeypatch.setattr(switch, "table_generators", counted_walk)
    args, code, text_sha, json_sha = SWITCH_FROZEN["prime p5 n1 s0 pi2"]
    for fmt, digest in (("text", text_sha), ("json", json_sha)):
        calls[:], walks[:] = [], []
        got, out, err = run(capsys, "switch", *args, "--format", fmt)
        assert (got, hashlib.sha256(out.encode()).hexdigest(), err) == (code, digest, ""), fmt
        assert ([len(w) for w in walks], calls[-1]) == ([9, 3], 3), fmt
    calls[:], walks[:] = [], []
    code, _, _ = run(capsys, "switch", *SWITCH_FROZEN["big p3 n2 s2 pi t+0"][0])
    assert (code, [len(w) for w in walks], calls[-1]) == (0, [2], 2)


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
    mul, switch_checks = FieldElement.__mul__, switch.switch_checks

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
    monkeypatch.setattr(switch, "switch_checks", swept)
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


# exit code and sha256 of stdout, frozen from the implementation whose
# callers passed the law verdicts of the table down by hand
ANALYZE_FROZEN = {
    # the benchmark's analyze-big3125 variants, pi = t + c for c = 0 to 4;
    # t+1 to t+4 frozen from the implementation that ran the derivation
    # kernel once per generator
    "big p5 n1 s0 max45 pi t+0": (("--case", "big-field", "--p", "5", "--n", "1", "--s", "0",
                                   "--max-degree", "45", "--pi", "t+0"), 0,
                                  "3acf19a0947f5163e2bb69a504afcd4a5812e67b7e683eac13b7796a6fc6ace4",
                                  "809e6918fe5e18f4235cd1f658116cad38cb925c5ce1c7cc25d150ad750d3026"),
    "big p5 n1 s0 max45 pi t+1": (("--case", "big-field", "--p", "5", "--n", "1", "--s", "0",
                                   "--max-degree", "45", "--pi", "t+1"), 0,
                                  "3c0d7171c5e641d60e9fd01f35d4590748673a0b1f65e9add771d8365e13e367",
                                  "8150eed2064e0c7b05004a79cd6d1fda35c0a65f796b290437e7c01ec7b19512"),
    "big p5 n1 s0 max45 pi t+2": (("--case", "big-field", "--p", "5", "--n", "1", "--s", "0",
                                   "--max-degree", "45", "--pi", "t+2"), 0,
                                  "6814c58cb9816ae909954462fef69fae0b17709df00c817ba9b22b690201ab0e",
                                  "2afb0a70cc7eac3a39ed0abd953fc9318de6a5506c2853ce3d6054d2e70229dc"),
    "big p5 n1 s0 max45 pi t+3": (("--case", "big-field", "--p", "5", "--n", "1", "--s", "0",
                                   "--max-degree", "45", "--pi", "t+3"), 0,
                                  "9e1c547b50bb65a58eee162fa5d53e4e39400a1fe6da39e6753f5b7760e9c25a",
                                  "6dc39d31cd868ba6a3e06fd35a2455c426addee163bd14d6de859dc51d8ac16f"),
    "big p5 n1 s0 max45 pi t+4": (("--case", "big-field", "--p", "5", "--n", "1", "--s", "0",
                                   "--max-degree", "45", "--pi", "t+4"), 0,
                                  "06937854c4007d9917481445a6c4b9638156781c49764b558fa50fe3da20e03f",
                                  "7e4bef5174f2bb3d681858f3cfd09e0d6036117ce26c7fdedd800bfa2e0d56c5"),
    # the acceptance reproductions of the paper's two cases
    "big p3 n2 s1 max216": (("--case", "big-field", "--p", "3", "--n", "2", "--s", "1",
                             "--max-degree", "216"), 0,
                            "8490bbb79b1d46ba68f00b64f42111a5a8667c4926ae8422101ed00d9841659c",
                            "2a3988ef8361ba36b805c05e652ce7bae671a75896b7632df8f28893dad3264c"),
    "prime p5 n1 s1 pi2 max300": (("--case", "prime-field", "--p", "5", "--n", "1", "--s", "1",
                                   "--pi", "2", "--max-degree", "300"), 0,
                                  "9b5f4075734400afc2c409341fcfe4519f46ac99575363e43c34b650143f8e2b",
                                  "17d573c9bcc036ca72d4a5626706985f1d66ee9b8457ad1289a847cdaff0991c"),
    "preswitch az p3 n2 s1": (("--case", "preswitch", "--family", "albert-zassenhaus",
                               "--p", "3", "--n", "2", "--s", "1"), 0,
                              "c36f79491bed279e516978db0f1a95c2f85f244401689486641d01a171ac68ec",
                              "8a033465a82f0374df46fa986915272d2f9bff6c1dcb9e60317f3f616e62928a"),
    # failing runs, whose JSON carries the counterexamples
    "prime p5 n1 s1 pi0": (("--case", "prime-field", "--p", "5", "--n", "1", "--s", "1",
                            "--pi", "0", "--allow-negative-control"), 1,
                           "f98d3b3ac34a243f4a7514de14ba02bfdbcef719b3bde3d0114e0a2b662a3142",
                           "01a4599c210098a190bdb2bf6771b79501bb1e2fc8871c5674c6c9dde96b6b6d"),
    "prime p5 n1 s0 pi0 F3125": (("--case", "prime-field", "--p", "5", "--n", "1", "--s", "0",
                                  "--pi", "0", "--allow-negative-control",
                                  "--field", "5^5:4,4,0,0,0,1"), 1,
                                 "2115d74c8e11ce711058f8518b4b2a98e34d10bd0207f4fc0d17525d4ae6fa87",
                                 "6b7c42176456e33b510d82ea142d0c86a11a8455252258f870808f36725fb818"),
    "preswitch gh p3 n1": (("--case", "preswitch", "--family", "graded-hamiltonian",
                            "--p", "3", "--n", "1"), 1,
                           "88789a72b8285bd63b89b258ac3e44cf18aad3c48a553c596810d87f25d5e2eb",
                           "7730592edf95949661419fc2830ca1b634ba3db6228f7f624a5384a7ade0f61c"),
}


@pytest.mark.parametrize("name", sorted(ANALYZE_FROZEN))
def test_analyze_stdout_frozen(capsys, name):
    args, code, text_sha, json_sha = ANALYZE_FROZEN[name]
    for fmt, digest in (("text", text_sha), ("json", json_sha)):
        got, out, err = run(capsys, "analyze", *args, "--format", fmt)
        assert (got, hashlib.sha256(out.encode()).hexdigest(), err) == (code, digest, ""), fmt


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


# argvs that exit 2 with an `error:` line on stderr
USAGE_ERRORS = (
    ("analyze", "--p", "3", "--n", "1"),
    ("switch", "--case", "preswitch", "--p", "3", "--n", "1"),
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
    # above 3 * MAX_MONOMIALS = 3000, refused before any expansion
    ("analyze", "--case", "big-field", "--p", "5", "--n", "1", "--s", "0",
     "--max-degree", "3001"),
    # 101^6 monomials, over the MAX_MONOMIALS budget
    ("verify", "--p", "101", "--n", "3", "--family", "albert-zassenhaus"),
    # refused on the exponent, without computing 3^(2 * 10^9)
    ("verify", "--p", "3", "--n", "1000000000", "--family", "albert-zassenhaus"),
    # degree 300, over MAX_FIELD_DEGREE, refused before the irreducibility test
    ("switch", "--case", "big-field", "--p", "3", "--n", "1",
     "--field", "3^300:" + ",".join(["2", "1"] + ["0"] * 298 + ["1"])),
    # options the chosen analyze case does not read
    ("analyze", "--case", "preswitch", "--family", "albert-zassenhaus", "--p", "3", "--n", "1",
     "--sigma", "2"),
    ("analyze", "--case", "preswitch", "--family", "graded-hamiltonian", "--p", "3", "--n", "1",
     "--sigma", "2"),
    ("analyze", "--case", "preswitch", "--family", "albert-zassenhaus", "--p", "3", "--n", "1",
     "--pi", "2"),
    ("analyze", "--case", "preswitch", "--family", "albert-zassenhaus", "--p", "3", "--n", "1",
     "--allow-negative-control"),
    ("analyze", "--case", "big-field", "--p", "3", "--n", "1",
     "--family", "albert-zassenhaus"),
    ("analyze", "--case", "prime-field", "--p", "3", "--n", "1",
     "--family", "graded-hamiltonian"),
    # a graded-hamiltonian pre-switch pi outside F_p
    ("analyze", "--case", "preswitch", "--family", "graded-hamiltonian", "--p", "3", "--n", "1",
     "--field", "3^2:2,2,1", "--pi", "t"),
)

# (argv, option) pairs that argparse refuses with "unrecognized arguments:
# <option>", exit 2: n1 is s + 1 in the graded commands, only analyze bounds
# the degree, verify checks the algebra over F_p before any switch, and a
# switched case fixes its family
REFUSED_OPTIONS = (
    (("analyze", "--case", "big-field", "--p", "3", "--n", "1", "--s", "1", "--n1", "3"),
     "--n1"),
    (("switch", "--case", "big-field", "--p", "3", "--n", "1", "--n1", "3"), "--n1"),
    (("verify", "--family", "albert-zassenhaus", "--p", "3", "--n", "1",
      "--max-degree", "50"), "--max-degree"),
    (("verify", "--family", "albert-zassenhaus", "--p", "3", "--n", "1", "--sigma", "2"),
     "--sigma"),
    (("verify", "--family", "albert-zassenhaus", "--p", "3", "--n", "1", "--case", "big-field"),
     "--case"),
    (("verify", "--family", "albert-zassenhaus", "--p", "3", "--n", "1",
      "--field", "3^2:2,2,1"), "--field"),
    (("verify", "--family", "albert-zassenhaus", "--p", "3", "--n", "1", "--pi", "2"), "--pi"),
    (("verify", "--family", "albert-zassenhaus", "--p", "3", "--n", "1",
      "--allow-negative-control"), "--allow-negative-control"),
    (("switch", "--case", "big-field", "--p", "3", "--n", "1",
      "--family", "albert-zassenhaus"), "--family"),
)


def test_usage_errors(capsys):
    for args in USAGE_ERRORS:
        code, _, err = run(capsys, *args)
        assert code == 2, args
        assert err.startswith("error:"), args
    # a degree, a coefficient and a p of more digits than int() reads from text
    for spec in ("3^" + "9" * 5000 + ":1", "3^1:" + "9" * 5000 + ",1", "9" * 5000 + "^1:0,1"):
        code, _, err = run(capsys, "switch", "--case", "big-field", "--p", "3", "--n", "1",
                           "--field", spec)
        assert (code, err) == (2, "error: --field numbers have at most 4300 digits\n")
    # the same bound on --pi and --sigma, as a coefficient and as a power of t
    for option in ("--pi", "--sigma"):
        for number in ("9" * 5000, "t^" + "9" * 5000):
            code, _, err = run(capsys, "switch", "--case", "big-field", "--p", "3", "--n", "1",
                               option, number)
            assert (code, err) == (2, f"error: {option} numbers have at most 4300 digits\n")
    for args, flag in REFUSED_OPTIONS:
        with pytest.raises(SystemExit) as exc:
            main(list(args))
        assert exc.value.code == 2, args
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err, args


def test_each_analyze_case_takes_only_the_options_it_reads(capsys, monkeypatch):
    """An analyze case refuses, before any field is built, each option it
    never reads: sigma enters only through the switch, the
    albert-zassenhaus pre-switch degree has no pi, and a switched case fixes
    its family.  The graded-hamiltonian pre-switch degree is twisted by the
    residue of pi in F_p, so a pi outside F_p is refused there."""
    refusals = {
        ("preswitch", "albert-zassenhaus", "--sigma"):
            "the preswitch case on albert-zassenhaus does not read --sigma",
        ("preswitch", "graded-hamiltonian", "--sigma"):
            "the preswitch case does not read --sigma",
        ("preswitch", "albert-zassenhaus", "--pi"):
            "the preswitch case on albert-zassenhaus does not read --pi",
        ("preswitch", "albert-zassenhaus", "--allow-negative-control"):
            "the preswitch case on albert-zassenhaus does not read --allow-negative-control",
        ("big-field", "albert-zassenhaus", "--family"):
            "the big-field case does not read --family",
        ("big-field", "graded-hamiltonian", "--family"):
            "the big-field case does not read --family",
        ("prime-field", "graded-hamiltonian", "--family"):
            "the prime-field case does not read --family",
        ("prime-field", "albert-zassenhaus", "--family"):
            "the prime-field case does not read --family",
    }
    # the argv of each option after --family, which every row passes
    argv_of = {"--sigma": ["--sigma", "2"], "--pi": ["--pi", "2"],
               "--allow-negative-control": ["--allow-negative-control"], "--family": []}
    monkeypatch.setattr(cli, "FieldParams", None)  # building a field would raise
    for (case, family, option), error in refusals.items():
        for fmt in ("text", "json"):
            got = run(capsys, "analyze", "--case", case, "--family", family, "--p", "3",
                      "--n", "1", *argv_of[option], "--format", fmt)
            assert got == (2, "", f"error: {error}\n"), (case, family, option, fmt)
    monkeypatch.undo()
    for pi in ("t", "2t+1"):
        for fmt in ("text", "json"):
            got = run(capsys, "analyze", "--case", "preswitch", "--family", "graded-hamiltonian",
                      "--p", "3", "--n", "1", "--field", "3^2:2,2,1", "--pi", pi,
                      "--format", fmt)
            assert got == (2, "", "error: the preswitch case needs pi in the prime subfield\n"), (
                pi, fmt)


def test_field_degree_is_bounded_before_the_modulus_is_tested(capsys, monkeypatch):
    """The irreducibility test grows as m^3 (27.6 s at m = 400 over F_3), so
    a --field degree above MAX_FIELD_DEGREE exits 2 without it; at the
    bound the modulus is tested, and here found reducible."""
    tested, bound = [], cli.MAX_FIELD_DEGREE
    monkeypatch.setattr(ffield, "is_irreducible", lambda *args: tested.append(args[1]))
    for m, error in ((bound + 1, f"--field degree {bound + 1} is above {bound}"),
                     (bound, "is reducible over F_3")):
        spec = f"3^{m}:" + ",".join(["2", "1"] + ["0"] * (m - 2) + ["1"])
        code, out, err = run(capsys, "switch", "--case", "big-field", "--p", "3", "--n", "1",
                             "--field", spec)
        assert (code, out, len(tested)) == (2, "", int(m == bound)), m
        assert err.startswith("error: ") and err.endswith(error + "\n"), m


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


def test_analyze_needs_both_degree_one_generators(capsys):
    """GradedHamiltonian at s = 0 with pi = 1 over F_3 puts the degree-1
    label Y on an excluded monomial.  switch certifies that basis, but the
    loop analysis starts from X and Y, so analyze exits 1 before any
    report."""
    args = ("--case", "prime-field", "--p", "3", "--n", "1", "--s", "0", "--pi", "1")
    assert run(capsys, "switch", *args)[0] == 0
    refusal = (1, "", "error: degree-1 labels [Label(j=-1, k=-1, a=2)] do not split "
                      "into generators\n")
    for fmt in ("text", "json"):
        assert run(capsys, "analyze", *args, "--format", fmt) == refusal, fmt


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
    assert (rc.field.spec_string, str(rc.pi), str(rc.sigma), rc.spec.pi_residue) == ("3^1:0,1", "1", "1", 1)
    ns = build_parser().parse_args(
        ["analyze", "--case", "big-field", "--p", "3", "--n", "2"]
    )
    rc = materialize(ns)
    assert (rc.n1, rc.s) == (2, 1)
    assert rc.field.spec_string == "3^3:2,2,0,1"
    assert str(rc.pi) == "t" and str(rc.sigma) == "1"
    assert rc.spec.pi_residue == 0  # the Albert-Zassenhaus pre-switch grading has no pi twist
    ns = build_parser().parse_args(
        ["analyze", "--case", "prime-field", "--p", "3", "--n", "1", "--pi", "2"]
    )
    assert materialize(ns).spec.pi_residue == 2

