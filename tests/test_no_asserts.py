"""The package raises real exceptions: ``python -O`` strips assert statements."""

import ast
from pathlib import Path

import twoaction

SOURCES = sorted(Path(twoaction.__file__).parent.glob("*.py"))


def test_package_has_no_assert_statements():
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
