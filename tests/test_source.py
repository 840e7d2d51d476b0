"""Static checks on the package source."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).parents[1] / "src" / "thinlie").glob("*.py"))


def test_no_assert_statements():
    """python -O strips assert, so no claim in the package may rest on one;
    checks raise explicit errors instead."""
    assert SOURCES
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
