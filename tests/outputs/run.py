"""Byte-identity check: the command line's outputs at a git ref and here.

    python3 tests/outputs/run.py REF   # e.g. HEAD~1

Extracts src/ at REF with `git archive` into a temporary directory, then
runs every argv below with `--format text` and with `--format json`, each
in a fresh `python -m thinlie` process, once on that copy and once on the
working tree's src/.  Every pair whose exit code, stdout or stderr differ
is reported; the exit status is 1 when any pair differs, 0 otherwise.

The argvs are read from this checkout: the frozen tables, usage errors and
refused options of tests/test_cli.py (evaluated from its syntax tree, so
neither pytest nor the package is imported here), the `$ thinlie` examples
of README.md, and every variant of each benchmark workload in
perfbench/workloads.py; `--help` of each subcommand is compared too.
One more pair compares the library surface: a fresh `python -c` that prints
every name of `thinlie.__all__` with its `__module__` and `__qualname__`,
then runs README.md's library quick start as tests/test_package.py does,
printing the value of each expression line.  The last pairs print the
failure listings that only planted inputs reach: the pair sweep of a
switched basis with one rule fault, and the Jacobi, Leibniz and
anticommutativity listings of a table that is no Lie algebra.
Standard library only; this is not part of the tier-1 suite.
"""

from __future__ import annotations

import ast
import importlib.util
import io
import os
import re
import shlex
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
TIMEOUT_S = 600


#: Prints each public name of the package with the module and qualified
#: name it resolves to.
LIBRARY = ("import thinlie\n"
           "for name in thinlie.__all__:\n"
           "    value = getattr(thinlie, name)\n"
           "    print(name, value.__module__, value.__qualname__)\n")

#: Builds the planted non-Lie table the law pairs read: AlbertZassenhaus
#: (3; 2, 1) with [xy, x^(2)y] = xy and [x^(2)y, xy] = 2xy, anticommutative
#: but no Lie algebra.
PLANTED_TABLE = (
    "from thinlie import AlgebraDescriptor, Derivation, Family, FieldParams, Heights, Monomial\n"
    "desc = AlgebraDescriptor(Family.ALBERT_ZASSENHAUS, FieldParams.prime(3), Heights(3, 2, 1))\n"
    "a, b = desc.basis.index(Monomial(1, 1)), desc.basis.index(Monomial(2, 1))\n"
    "desc.table[a][b], desc.table[b][a] = (1, a), (2, a)\n")

#: (label, program) of the failure listings that no command line reaches,
#: each printed from planted inputs by the package's public names.
PLANTED = [
    # the certificate fails on the doubled vector of (0,0,1), so the pair
    # sweep lists every ordered pair that leaves its closed product rule
    ("pair sweep on a planted rule fault",
     "from thinlie import (AlgebraDescriptor, Family, FieldParams, GradingCase, GradingSpec,\n"
     "                     Heights, Label, SwitchConfig, build_closed_basis, check_graded)\n"
     "field, heights = FieldParams(3, 3, (2, 2, 0, 1)), Heights(3, 2, 1)\n"
     "desc = AlgebraDescriptor(Family.ALBERT_ZASSENHAUS, field, heights)\n"
     "cfg = SwitchConfig(field, field.one(), field.gen(), 1)\n"
     "closed = build_closed_basis(desc, GradingSpec(GradingCase.BIG_FIELD, heights, 1), cfg)\n"
     "closed.vectors[Label(0, 0, 1)] = closed.vectors[Label(0, 0, 1)].scale(2)\n"
     "strays, misses = check_graded(desc, closed, cfg)\n"
     "print(len(strays), 'strays')\n"
     "print(*(f'{a.text()} {b.text()}' for a, b in misses), sep='\\n')\n"),
    ("jacobi triples on a planted non-Lie table",
     PLANTED_TABLE + "print(*desc.jacobi, sep='\\n')\n"),
    ("leibniz pairs on a planted non-Lie table",
     PLANTED_TABLE + "print(*Derivation(desc, 1).leibniz, sep='\\n')\n"),
    # the same table with the mirror [x^(2)y, xy] dropped
    ("anticommutativity on a planted non-Lie table",
     PLANTED_TABLE + "del desc.table[b][a]\nprint(*desc.anticommutativity, sep='\\n')\n"),
]


def read_test(file: str, *names: str) -> list:
    """Module-level names of tests/<file>, built by running only their own
    assignments and function definitions."""
    path = ROOT / "tests" / file
    nodes = [node for node in ast.parse(path.read_text()).body
             if isinstance(node, ast.FunctionDef) and node.name in names
             or isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in names]
    namespace = {"__file__": str(path), "re": re, "shlex": shlex, "Path": Path}
    exec(compile(ast.Module(nodes, []), str(path), "exec"), namespace)
    return [namespace[name] for name in names]


def argvs() -> list:
    """Every argv to compare, without --format, in a fixed order, once each."""
    switch, verify, analyze, usage, refused, examples = read_test(
        "test_cli.py", "SWITCH_FROZEN", "VERIFY_FROZEN", "ANALYZE_FROZEN", "USAGE_ERRORS",
        "REFUSED_OPTIONS", "readme_examples")
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    out = [(command, *table[name][0]) for command, table in
           (("switch", switch), ("verify", verify), ("analyze", analyze)) for name in table]
    out += list(usage)
    out += [args for args, _option in refused]
    out += [(command, "--help") for command in ("verify", "switch", "analyze")]
    out += [tuple(argv) for argv, _shown in examples()]
    out += [tuple(argv) for w in workloads.WORKLOADS.values() for argv in w.all_argvs()]
    return list(dict.fromkeys(out))


def outcome(src: Path, args: list, stdin: bytes = b"") -> tuple:
    """(exit code, stdout, stderr) of one fresh `python *args` process on the
    package in src."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, *args], cwd=src, env=env, input=stdin,
                          capture_output=True, timeout=TIMEOUT_S)
    return done.returncode, done.stdout, done.stderr


def runs() -> list:
    """(label, python args, stdin) of every process to compare."""
    out = []
    for args in argvs():
        for fmt in ("text", "json"):
            full = [*args, "--format", fmt]
            out.append((f"thinlie {shlex.join(full)}", ["-m", "thinlie", *full], b""))
    interactive, quick_start = read_test("test_package.py", "INTERACTIVE", "readme_quick_start")
    out.append(("library surface", ["-c", LIBRARY + interactive], quick_start().encode()))
    out += [(f"library: {label}", ["-c", program], b"") for label, program in PLANTED]
    return out


def main(argv: list) -> int:
    if len(argv) != 1:
        print("usage: python3 tests/outputs/run.py REF", file=sys.stderr)
        return 2
    ref, = argv
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", ref, "src"],
                             capture_output=True)
    if archive.returncode:
        print(archive.stderr.decode(), end="", file=sys.stderr)
        return 2
    differ = pairs = 0
    with tempfile.TemporaryDirectory() as tmp:
        tarfile.open(fileobj=io.BytesIO(archive.stdout)).extractall(tmp)
        for label, args, stdin in runs():
            before, after = (outcome(src, args, stdin) for src in (Path(tmp) / "src", ROOT / "src"))
            pairs += 1
            what = [part for part, a, b in zip(("exit code", "stdout", "stderr"), before, after)
                    if a != b]
            if what:
                differ += 1
                print(f"differ ({', '.join(what)}): {label}")
    print(f"{pairs} pairs against {ref}: {differ} differ")
    return int(differ > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
