"""Checks on the package source itself."""

import ast
from pathlib import Path

import ramify

SRC = Path(ramify.__file__).parent


def test_no_assert_statements_in_the_package():
    # python -O strips asserts, so a check in src/ must raise or be a test
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
