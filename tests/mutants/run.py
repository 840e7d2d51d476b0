"""Mutation gate: small edits of the package that the tests must catch.

    python3 tests/mutants/run.py   # self-test, then every mutant

Each mutant names a file under src/thinlie, an exact old text, the new
text that replaces it, and the pytest targets (test files or node ids
under tests/) that must fail once it is applied.  For each mutant the
script copies what the tests read (src/, tests/, perfbench/, README.md
and pyproject.toml) into a temporary directory, applies the edit there,
and runs the targets with pytest in a child process: a failing run kills
the mutant, a passing one lets it survive.
Old text that is missing from its file, or found more than once, is an
error, as is a pytest run that neither passes nor fails (a collection or
usage error): the table no longer matches the code.  A run that takes more
than TIMEOUT_S seconds is a timeout, neither killed nor survived: a slow
host and a hanging mutant look alike, so the gate cannot tell whether the
targets would have failed.

A self-test runs first: one mutant that its test must kill, and one no-op
mutant (new text equal to the old) that must survive.  The exit status is
0 when the self-test holds and every mutant is killed, 1 otherwise.  A
survivor means a missing test: add the test, keep the mutant.  A timeout
means a mutant that hangs: replace it with one whose targets fail.  Standard
library only; this is not part of the tier-1 suite.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[2]
TIMEOUT_S = 120


class Mutant(NamedTuple):
    name: str
    file: str  # under src/thinlie
    old: str
    new: str
    targets: tuple  # pytest targets under tests/ that must fail


SELF_TEST = [
    # (mutant, expected outcome)
    (Mutant("self-test: the Poisson constant's sign", "liealg.py",
            "    return (\n        lucas_binomial(i + k - 1, i, p)",
            "    return -(\n        lucas_binomial(i + k - 1, i, p)",
            ("test_liealg.py::test_poisson_coeff_frozen",)), "killed"),
    (Mutant("self-test: no-op", "liealg.py",
            "def table_power(", "def table_power(",
            ("test_liealg.py::test_poisson_coeff_frozen",)), "survived"),
]

MUTANTS = [
    Mutant("table_power drops % p", "liealg.py",
           "            c = c * d % p\n", "            c = c * d\n",
           ("test_liealg.py",)),
    Mutant("table_power stops one step early", "liealg.py",
           "        for _ in range(k):\n            if t not in table:",
           "        for _ in range(k - 1):\n            if t not in table:",
           ("test_liealg.py",)),
    Mutant("iterated_table shares the row of y", "liealg.py",
           "p, power = desc.heights.p, dict(desc.table[desc._index[Monomial(0, 1)]])",
           "p, power = desc.heights.p, desc.table[desc._index[Monomial(0, 1)]]",
           ("test_liealg.py",)),
    Mutant("derivation_defects: preimage sign", "liealg.py",
           "preimages[k].append((d, i, s, -y))", "preimages[k].append((d, i, s, y))",
           ("test_liealg.py",)),
    Mutant("_closed_form_table: AZ wrap coefficient", "liealg.py",
           "c = 0 if desc.family is Family.GRADED_HAMILTONIAN else -(m.j - 1) % p",
           "c = 0 if desc.family is Family.GRADED_HAMILTONIAN else (m.j - 1) % p",
           ("test_liealg.py",)),
    Mutant("switch_hypotheses: diagonal test", "grading.py",
           "        if k != i:\n            raise ValueError(f\"hypothesis failure: D^p is not",
           "        if k < i:\n            raise ValueError(f\"hypothesis failure: D^p is not",
           ("test_grading.py",)),
    Mutant("switch_hypotheses: a chain that dies in D^(p^2) read as D^p", "grading.py",
           "c2, k2 = dp2.get(i, (0, k))", "c2, k2 = dp2.get(i, (c, k))",
           ("test_grading.py",)),
    Mutant("power laws: expected eigenvalue", "liealg.py",
           "diagonal = [-(m.j - 1) % p for m in desc.basis]",
           "diagonal = [(m.j - 1) % p for m in desc.basis]",
           ("test_liealg.py",)),
    Mutant("power laws: D^(p^2) comparison dropped", "liealg.py",
           "        if dpp.get(i) != dp.get(i):\n            bad.append((m, \"D^(p^2) != D^p\"))\n",
           "",
           ("test_liealg.py",)),
    Mutant("realization_violations: D's own sources only", "liealg.py",
           "return [m for i, m in enumerate(desc.basis) if table.get(i) != iterated.get(i)]",
           "return [desc.basis[i] for i in sorted(table) if table[i] != iterated.get(i)]",
           ("test_liealg.py",)),
    Mutant("_product_rule: Y0 and Y1 swapped", "grading.py",
           "for l1, y0, y1, gy in yrow:", "for l1, y1, y0, gy in yrow:",
           ("test_grading.py",)),
    Mutant("_product_rule: block coefficient read at the fibre a - 1", "grading.py",
           "zip(block, sigma_expo[j1][a], sigma_expo[l1][b])",
           "zip(block, sigma_expo[j1][a - 1], sigma_expo[l1][b])",
           ("test_grading.py",)),
    Mutant("_rules_certified: a class entry expanded onto the fibre a + b + 1", "grading.py",
           "for b, t in zip(fibres[d][0], fibres[e][a])",
           "for b, t in zip(fibres[d][0], fibres[e][(a + 1) % len(fibres[e])])",
           ("test_grading.py",)),
    Mutant("_rules_certified: the fibre pass skips the rows at k = -1", "grading.py",
           "near = [c % ps == 0 or any(", "near = [any(",
           ("test_grading.py",)),
    Mutant("_rules_certified: the fibre pass skips the rows meeting a placeholder", "grading.py",
           "near = [c % ps == 0 or any(None in fibres[e][0] for _x, e in row.values())",
           "near = [c % ps == 0 or any(None in fibres[e][1:] for _x, e in row.values())",
           ("test_grading.py",)),
    Mutant("_prediction reads a vanishing prediction as a miss", "grading.py",
           ".terms if t is not None else {}", ".terms if t is not None else None",
           ("test_grading.py", "test_cli.py")),
    Mutant("RuleTable.rule keeps the class coefficient onto a placeholder", "grading.py",
           "            return (0,) * len(c), None\n", "            return tuple(c), None\n",
           ("test_grading.py::test_rule_table_matches_pairwise_oracle",)),
    Mutant("antisymmetry_violations: mirror target unchecked", "liealg.py",
           "if ba is None or ab[1] != ba[1] or (ab[0] + ba[0]) % p:",
           "if ba is None or (ab[0] + ba[0]) % p:",
           ("test_liealg.py",)),
    Mutant("additive_violations: first layer only", "liealg.py",
           "    for layer in rows:\n        for a, row in enumerate(layer):\n            wa",
           "    for layer in rows[:1]:\n        for a, row in enumerate(layer):\n            wa",
           ("test_liealg.py", "test_grading.py")),
    Mutant("table_generators: a pair read before both members are reached", "liealg.py",
           "if done[v] and not reached[k]:", "if not reached[k]:",
           ("test_liealg.py", "test_grading.py")),
    Mutant("accumulate keeps zero sums", "dpalgebra.py",
           "        if c:\n            terms[key] = c\n        else:\n            pop(key, None)",
           "        terms[key] = c",
           ("test_dpalgebra.py", "test_liealg.py")),
    # test_fold_reduces_by_the_modulus fails first; later hypothesis draws
    # can make SparseEchelon.reduce loop under this mutant
    Mutant("fold subtracts the reduced powers", "dpalgebra.py",
           "accumulate(terms, (((mono, r), c * f) for (mono, e), c in high",
           "accumulate(terms, (((mono, r), -c * f) for (mono, e), c in high",
           ("test_dpalgebra.py", "test_liealg.py")),
    Mutant("SparseEchelon.reduce clears one pivot only", "dpalgebra.py",
           "        terms = dict(v.terms)\n        while terms:",
           "        terms = dict(v.terms)\n        if terms:",
           ("test_dpalgebra.py", "test_liealg.py")),
    Mutant("SparseEchelon.insert keys a row at its largest monomial", "dpalgebra.py",
           "lead = min(v.terms)[0]\n        self.rows[lead]", "lead = max(v.terms)[0]\n        self.rows[lead]",
           ("test_dpalgebra.py", "test_liealg.py")),
    Mutant("SparseEchelon.coordinates in decreasing pivot order", "dpalgebra.py",
           "return tuple(v.coeff(m) for m in sorted(self.rows))",
           "return tuple(v.coeff(m) for m in sorted(self.rows, reverse=True))",
           ("test_dpalgebra.py", "test_loopalg.py")),
    Mutant("SparseEchelon.__eq__ compares pivots only", "dpalgebra.py",
           "            and self.rows.keys() == other.rows.keys()\n            and all(",
           "            and self.rows.keys() == other.rows.keys()\n            or all(",
           ("test_dpalgebra.py", "test_loopalg.py")),
    Mutant("check_covering: discriminant with 2 for 4", "loopalg.py",
           "square_root(beta * beta - alpha * gamma * 4)", "square_root(beta * beta - alpha * gamma * 2)",
           ("test_loopalg.py",)),
    Mutant("periodicity_failures skips the last degree", "loopalg.py",
           "for i in range(1, len(records) - period + 1):", "for i in range(1, len(records) - period):",
           ("test_loopalg.py", "test_acceptance.py")),
    Mutant("_laguerre_coefficients: sign", "grading.py",
           "coeffs.append(-falling_factorial(alpha + (p - 1), p - 1 - k) * lam_k)",
           "coeffs.append(falling_factorial(alpha + (p - 1), p - 1 - k) * lam_k)",
           ("test_grading.py",)),
    # the sign edit again, which the sympy Laguerre oracle must catch on its own
    Mutant("_laguerre_coefficients: sign, against sympy alone", "grading.py",
           "coeffs.append(-falling_factorial(alpha + (p - 1), p - 1 - k) * lam_k)",
           "coeffs.append(falling_factorial(alpha + (p - 1), p - 1 - k) * lam_k)",
           ("test_sympy_oracles.py::test_laguerre_coefficients_match_sympy",)),
    Mutant("_closed_scalar: sigma^a dropped", "grading.py",
           "return -falling_factorial(alpha, a) * cfg.sigma ** a / den",
           "return -falling_factorial(alpha, a) / den",
           ("test_grading.py", "test_cli.py")),
    # field arithmetic, each edit against its sympy oracle alone
    Mutant("lucas_binomial: the negative-index sign dropped", "ffield.py",
           "sign = -1 if k % 2 else 1", "sign = 1",
           ("test_sympy_oracles.py::test_lucas_binomial_matches_sympy",)),
    Mutant("is_irreducible: the gcd test skipped", "ffield.py",
           "            if len(g) - 1 > 0:\n", "            if False:\n",
           ("test_sympy_oracles.py::test_is_irreducible_matches_sympy",)),
    Mutant("_inverse_coeffs: the last remainder not divided out", "ffield.py",
           "inv = pow(r1[0], -1, p)", "inv = 1",
           ("test_sympy_oracles.py::test_extension_field_arithmetic_matches_sympy",)),
    Mutant("verify takes --pi again", "cli.py",
           'help="first exponent height (default: --n)")\n',
           'help="first exponent height (default: --n)")\n'
           '            sp.add_argument("--pi", default=None, help="switching parameter pi")\n',
           ("test_cli.py::test_each_subcommand_takes_only_the_options_it_reads",)),
    Mutant("switch takes --family again", "cli.py",
           'if name != "switch":  # a switched case fixes its family',
           'if True:  # a switched case fixes its family',
           ("test_cli.py::test_each_subcommand_takes_only_the_options_it_reads",)),
    Mutant("preswitch reads --sigma again", "cli.py",
           '        unread = {"--sigma": sigma_text}\n', "        unread = {}\n",
           ("test_cli.py::test_each_analyze_case_takes_only_the_options_it_reads",)),
    Mutant("albert-zassenhaus preswitch reads --pi again", "cli.py",
           'unread.update({"--pi": pi_text, "--allow-negative-control"',
           'unread.update({"--allow-negative-control"',
           ("test_cli.py::test_each_analyze_case_takes_only_the_options_it_reads",)),
    Mutant("graded-hamiltonian preswitch reads a pi outside F_p as 0 again", "cli.py",
           "if family is Family.GRADED_HAMILTONIAN and not pi.in_prime_field():",
           'if case == "prime-field" and not pi.in_prime_field():',
           ("test_cli.py::test_each_analyze_case_takes_only_the_options_it_reads",)),
    Mutant("a switched case takes --family again", "cli.py",
           '        unread = {"--family": family_text}\n', "        unread = {}\n",
           ("test_cli.py::test_each_analyze_case_takes_only_the_options_it_reads",)),
    Mutant("the package imports loopalg eagerly again", "__init__.py",
           "import importlib\n", "import importlib\n\nfrom .loopalg import run_analysis\n",
           ("test_package.py",)),
    Mutant("AlgebraDescriptor exported from loopalg, which imports it", "__init__.py",
           '"liealg": ("AlgebraDescriptor", "Derivation", "Family"),\n'
           '    "loopalg": ("ComponentRecord",',
           '"liealg": ("Derivation", "Family"),\n'
           '    "loopalg": ("AlgebraDescriptor", "ComponentRecord",',
           ("test_package.py",)),
    Mutant("_lazy executes the module at once", "cli.py",
           "    spec.loader = importlib.util.LazyLoader(spec.loader)\n", "",
           ("test_package.py::test_each_subcommand_runs_only_the_modules_it_uses",)),
    Mutant("cli imports grading at load time", "cli.py",
           "from .ffield import MAX_SPEC_DIGITS, FieldParams\n",
           "from .ffield import MAX_SPEC_DIGITS, FieldParams\nfrom .grading import SwitchConfig\n",
           ("test_package.py::test_each_subcommand_runs_only_the_modules_it_uses",)),
    Mutant("_lazy leaves the module out of sys.modules", "cli.py",
           "    sys.modules[name] = module\n", "",
           ("test_cli.py::test_traced_jobs_span_each_law_once",)),
    Mutant("an unknown package name reads as None", "__init__.py",
           '        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")',
           "        return None",
           ("test_package.py",)),
]


def run(mutant: Mutant) -> str:
    """'killed', 'survived' or 'timeout'; ValueError when the table does not
    match the code."""
    source = (ROOT / "src" / "thinlie" / mutant.file).read_text()
    count = source.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.name}: old text found {count} times in {mutant.file}")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        # caches, and perfbench's run results in perfbench/out
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "out")
        for folder in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / folder, work / folder, ignore=skip)
        for name in ("README.md", "pyproject.toml"):
            shutil.copy(ROOT / name, work)
        (work / "src" / "thinlie" / mutant.file).write_text(source.replace(mutant.old, mutant.new))
        try:
            code = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                 *(f"tests/{t}" for t in mutant.targets)],
                cwd=work, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                env=env, timeout=TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            return "timeout"
    if code not in (0, 1):
        raise ValueError(f"{mutant.name}: pytest exited {code}, neither a pass nor a failure")
    return "killed" if code else "survived"


def main() -> int:
    ok = True
    for mutant, expected in SELF_TEST:
        got = run(mutant)
        ok &= got == expected
        print(f"{mutant.name}: {got} (expected {expected})")
    if not ok:
        print("self-test failed: the gate cannot tell killed from survived")
        return 1
    outcomes = []
    for mutant in MUTANTS:
        start = time.perf_counter()
        outcomes.append(run(mutant))
        print(f"{mutant.name}: {outcomes[-1]} ({time.perf_counter() - start:.1f} s)")
    killed = outcomes.count("killed")
    print(f"{len(MUTANTS)} mutants: {killed} killed, {outcomes.count('survived')} survived, "
          f"{outcomes.count('timeout')} timed out")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
