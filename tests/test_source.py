"""Checks on the package source itself."""

import ast
import subprocess
import sys
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


def test_the_cli_loads_neither_dataclasses_nor_inspect():
    # together they cost every fresh process about 15 ms; -S keeps the
    # imports of site's .pth files out of sys.modules
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import ramify.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code, str(SRC.parent)],
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout == "[]\n"
