"""Static checks on the package source."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]
SOURCES = sorted((ROOT / "src" / "thinlie").glob("*.py"))


def test_no_assert_statements():
    """python -O strips assert, so no claim in the package may rest on one;
    checks raise explicit errors instead."""
    assert SOURCES
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def absolute_imports(nodes=ast.walk):
    """(file:line, module) for every absolute import in the package, among
    the nodes that `nodes` yields from each module's tree."""
    for path in SOURCES:
        for node in nodes(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            yield from ((f"{path.name}:{node.lineno}", name) for name in names)


def test_stdlib_only():
    """The package imports nothing outside the standard library: every
    import is relative or names a standard module."""
    assert SOURCES
    found = [f"{where} {name}" for where, name in absolute_imports()
             if name.split(".")[0] not in sys.stdlib_module_names]
    assert found == []


def test_no_dataclasses():
    """The package builds its records as NamedTuples and plain classes:
    importing dataclasses pulls inspect, ast, dis and tokenize into every
    command's start-up."""
    assert SOURCES
    found = [f"{where} {name}" for where, name in absolute_imports()
             if name.split(".")[0] == "dataclasses"]
    assert found == []


def load_time_imports(tree: ast.AST):
    """The import nodes of a module that run when it loads: every one
    outside a function body (class bodies run at load too)."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield from load_time_imports(node)


def test_json_is_imported_where_json_is_written():
    """Text-format runs do not load `json`: each package module imports it
    inside the functions that write or read JSON, not at load time."""
    assert SOURCES
    found = [f"{where} {name}" for where, name in absolute_imports(load_time_imports)
             if name.split(".")[0] == "json"]
    assert found == []


def test_no_field_walks():
    """No check enumerates F_q: only ffield calls `.elements()`, where
    square_root stops at the first nonsquare."""
    assert SOURCES
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES if path.name != "ffield.py"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "elements"]
    assert found == []


def test_only_dpalgebra_touches_echelon_rows():
    """The echelon row invariant lives in dpalgebra alone: no other module
    reads or writes an attribute named `rows`; they read a span through
    `SparseEchelon` methods."""
    assert SOURCES
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES if path.name != "dpalgebra.py"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Attribute) and node.attr == "rows"]
    assert found == []


def test_trace_targets_resolve():
    """Every function the benchmark's tracer wraps still exists under the
    name it looks up, so renaming or deleting one fails here too."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing.SPANS + tracing.COUNTERS
    assert targets
    missing = [f"{module}:{path}" for _name, module, path in targets
               if tracing._resolve(importlib.import_module(module), path) is None]
    assert missing == []


def enclosing_calls(tree: ast.AST, name: str, scope: tuple = ()):
    """(line, qualified name of the enclosing function or class) of every
    call of the plain name `name` in `tree`."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = scope + (node.name,)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == name):
            yield node.lineno, ".".join(scope)
        yield from enclosing_calls(node, name, inner)


def test_grading_specs_are_built_in_one_place():
    """Which chart a run grades by is decided once: `cli.materialize` builds
    the pre-switch spec and `GradingSpec.switched` the spec a switch
    produces; no other package code constructs a GradingSpec."""
    assert SOURCES
    allowed = {("common.py", "GradingSpec.switched"), ("cli.py", "materialize")}
    found = [f"{path.name}:{line} {where}"
             for path in SOURCES
             for line, where in enclosing_calls(ast.parse(path.read_text(), str(path)),
                                                "GradingSpec")
             if (path.name, where) not in allowed]
    assert found == []
