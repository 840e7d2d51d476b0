"""The package's public names: what importing them loads, where they live,
and README's library quick start."""

import ast
import io
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import thinlie

#: Runs the Python source on stdin one top-level statement at a time, as an
#: interactive session does, so the value of each expression statement is
#: printed with repr.
INTERACTIVE = (
    "import ast, sys\n"
    "namespace = {'__name__': '__main__'}\n"
    "for statement in ast.parse(sys.stdin.read()).body:\n"
    "    exec(compile(ast.Interactive([statement]), 'README.md', 'single'), namespace)\n")


def readme_quick_start() -> str:
    """The python block under README.md's "Library quick start"."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block, = re.findall(r"^### Library quick start\n\n```python\n(.*?)^```", text, re.M | re.S)
    return block


def fresh(script: str, stdin: str = "") -> str:
    """stdout of `script` run by a fresh interpreter on this package."""
    src = os.path.dirname(os.path.dirname(thinlie.__file__))
    out = subprocess.run([sys.executable, "-c", script], input=stdin,
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return out.stdout


def loaded_by(statement: str) -> set:
    """The package's modules that a fresh interpreter has loaded after
    running `statement`."""
    listed = fresh(f"import sys\n{statement}\n"
                   "print(*(m for m in sys.modules if m.split('.')[0] == 'thinlie'))")
    return set(listed.split())


def test_algebra_names_load_only_the_algebra_modules():
    """Checking an algebra needs the field, the divided power algebra and
    the Lie algebra, and not the switch or the loop algebra."""
    assert loaded_by("from thinlie import AlgebraDescriptor, Family, FieldParams, Heights") == {
        "thinlie", "thinlie.ffield", "thinlie.dpalgebra", "thinlie.liealg"}


def test_the_closed_basis_loads_no_loop_algebra():
    """A closed basis needs `grading`, but neither the table laws, the raw
    switch with its certificate, nor the loop algebra."""
    loaded = loaded_by("from thinlie import build_closed_basis")
    assert "thinlie.grading" in loaded
    assert loaded.isdisjoint({"thinlie.laws", "thinlie.loopalg", "thinlie.switch", "thinlie.cli"})


def test_benchmark_set_ups_load_neither_laws_nor_switch():
    """The set-up each benchmark workload times in a fresh process (field,
    descriptor and, for the switched ones, the closed basis) loads neither
    `laws` nor `switch`."""
    perfbench = Path(__file__).parents[1] / "perfbench"
    for name in ("verify-az243", "switch-big243", "analyze-big3125"):
        loaded = loaded_by(f"sys.path.insert(0, {str(perfbench)!r})\n"
                           "from workloads import WORKLOADS\n"
                           f"WORKLOADS[{name!r}].setup_of(0)()")
        assert "thinlie.liealg" in loaded, name
        assert loaded.isdisjoint({"thinlie.laws", "thinlie.switch"}), name


def test_the_command_line_loads_every_module():
    """The benchmark's tracer wraps functions in the modules that
    `import thinlie.cli` has put in sys.modules, so that import puts all of
    them there."""
    assert loaded_by("import thinlie.cli") == {
        "thinlie", *(f"thinlie.{name}" for name in
                     ("cli", "common", "dpalgebra", "ffield", "grading", "laws", "liealg",
                      "loopalg", "switch"))}


def modules_run_by(*argv: str) -> set:
    """The package's modules whose bodies a fresh interpreter executes to
    run the command line on argv.  An audit hook on the `exec` event sees
    each module's code object, compiled from source or read from cached
    bytecode alike."""
    listed = fresh(
        "import contextlib, io, os, sys\n"
        "ran = set()\n"
        "def hook(event, args):\n"
        "    if event == 'exec':\n"
        "        ran.add(args[0].co_filename)\n"
        "sys.addaudithook(hook)\n"
        "import thinlie.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = thinlie.cli.main({list(argv)!r})\n"
        "home = os.path.dirname(thinlie.cli.__file__)\n"
        "print(code, *(os.path.basename(f)[:-3] for f in ran if os.path.dirname(f) == home))\n")
    code, *modules = listed.split()
    assert code == "0", argv
    return set(modules)


def test_each_subcommand_runs_only_the_modules_it_uses():
    """verify checks the table laws (`laws`) before any switch and runs
    neither the closed basis (`grading`), the raw switch with its
    certificate (`switch`) nor the loop algebra (`loopalg`); switch runs
    all but the loop algebra.  analyze checks no law and certifies no
    product rule: it runs the closed basis and the loop algebra alone."""
    algebra = {"__init__", "cli", "common", "dpalgebra", "ffield", "liealg"}
    assert modules_run_by("verify", "--family", "albert-zassenhaus", "--p", "3",
                          "--n", "1") == {*algebra, "laws"}
    assert modules_run_by("switch", "--case", "big-field", "--p", "3", "--n", "1") == {
        *algebra, "laws", "grading", "switch"}
    for case in ("big-field", "prime-field"):
        assert modules_run_by("analyze", "--case", case, "--p", "3", "--n", "1") == {
            *algebra, "grading", "loopalg"}, case
    assert modules_run_by("analyze", "--case", "preswitch", "--family", "albert-zassenhaus",
                          "--p", "3", "--n", "1", "--s", "1") == {*algebra, "grading", "loopalg"}


def test_public_names_are_their_home_modules_objects():
    assert thinlie.__all__
    for name in thinlie.__all__:
        value = getattr(thinlie, name)
        assert value.__module__.startswith("thinlie."), name
        assert getattr(sys.modules[value.__module__], name) is value, name
    assert dir(thinlie) == sorted(thinlie.__all__)


def test_submodules_resolve_after_a_bare_import():
    assert loaded_by("import thinlie") == {"thinlie"}
    assert fresh("import thinlie\nprint(thinlie.grading.__name__)") == "thinlie.grading\n"


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        thinlie.no_such_name
    assert not hasattr(thinlie, "no_such_name")
    with pytest.raises(ImportError):
        from thinlie import no_such_name  # noqa: F401


def test_readme_quick_start():
    """README's library example, run in a fresh interpreter as an
    interactive session runs it, shows on each expression line the value
    its comment gives."""
    block = readme_quick_start()
    comments = {token.start[0]: token.string.lstrip("#").strip()
                for token in tokenize.generate_tokens(io.StringIO(block).readline)
                if token.type == tokenize.COMMENT}
    shown = [comments[statement.end_lineno] for statement in ast.parse(block).body
             if isinstance(statement, ast.Expr)]
    assert shown == ["27", "'(2)*x^(1)y^(0)'", "'(1)*x^(8)y^(0)'"]
    assert fresh(INTERACTIVE, block).splitlines() == shown
