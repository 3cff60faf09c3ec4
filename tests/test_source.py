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


def test_every_exported_name_resolves():
    # a name removed from its module must leave __all__ too
    missing = [name for name in ramify.__all__ if not hasattr(ramify, name)]
    assert missing == []


def _template(node: ast.JoinedStr) -> str:
    """An f-string's text with {} for each value, joined across lines."""
    return "".join(part.value if isinstance(part, ast.Constant) else "{}"
                   for part in node.values)


def test_the_tame_degree_rule_is_written_once():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.JoinedStr) and _template(node)
             == "tame degree {} must be positive and prime to {}"]
    assert len(found) == 1 and found[0].startswith("gf.py:")
