"""Source-level guards on the package itself."""

import ast
from pathlib import Path

import qleech

PACKAGE = Path(qleech.__file__).parent


def test_no_assert_statements_in_package():
    # `python -O` strips asserts; invariants must raise named errors instead
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_floats_in_package():
    # exact arithmetic only: no float or complex literal, no float() call
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)))
        or (isinstance(node, ast.Name) and node.id == "float")
    ]
    assert found == []
