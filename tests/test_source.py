"""Checks on the package source itself."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

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


def _in_functions(tree, owner=None):
    """(name of the innermost enclosing function or None, node) for every
    node below tree."""
    for node in ast.iter_child_nodes(tree):
        name = node.name if isinstance(node, ast.FunctionDef) else owner
        yield name, node
        yield from _in_functions(node, name)


def _attribute(name):
    return lambda node: isinstance(node, ast.Attribute) and node.attr == name


# (rule, its owner as file:function, the owner's message, and the
# comparison that decides the rule: the operators and an operand test)
RULES = [
    ("tame-degree", "gf.py:check_tame",
     "tame degree {} must be positive and prime to {}", None),
    ("field", "gf.py:check_field", "different fields: {} and {}",
     ((ast.NotEq,), _attribute("field"))),
    ("numbering", "ramfilt.py:check_numbering",
     "the filtration is numbered {}, not {}",
     ((ast.NotEq,), _attribute("numbering"))),
    ("s-iota-range", "ramfilt.py:check_s_iota", "s_iota = {} outside [1, {}]",
     ((ast.Lt, ast.LtE, ast.Gt, ast.GtE),
      lambda node: isinstance(node, ast.Name) and node.id in ("s_iota", "si"))),
]


@pytest.mark.parametrize("owner,message,decides", [r[1:] for r in RULES],
                         ids=[r[0] for r in RULES])
def test_each_rule_has_one_owner(owner, message, decides):
    # a rule written out twice can be mended in one place and missed in the
    # other: its message is written once, in its owner, and no other
    # function makes the comparison that decides it
    texts, others = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for func, node in _in_functions(tree):
            where = f"{path.name}:{func}"
            if isinstance(node, ast.JoinedStr) and _template(node) == message:
                texts.append(where)
            elif (decides and isinstance(node, ast.Compare) and where != owner
                  and any(isinstance(op, decides[0]) for op in node.ops)
                  and any(map(decides[1], [node.left, *node.comparators]))):
                others.add(f"{path.name}:{node.lineno}")
    assert sorted(others) == []
    assert texts == [owner]


def test_every_refusal_is_raised_in_one_place():
    # a rule written twice can be mended in one place and missed in the
    # other: each message, f-string values as {}, has one raise
    sites = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and node.exc.args):
                text = node.exc.args[0]
                if isinstance(text, ast.JoinedStr):
                    text = _template(text)
                elif isinstance(text, ast.Constant) and isinstance(text.value, str):
                    text = text.value
                else:
                    continue
                sites.setdefault(text, []).append(f"{path.name}:{node.lineno}")
    assert {text: at for text, at in sites.items() if len(at) > 1} == {}


def test_the_cli_loads_neither_dataclasses_nor_inspect():
    # together they cost every fresh process about 15 ms; -S keeps the
    # imports of site's .pth files out of sys.modules
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import ramify.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code, str(SRC.parent)],
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout == "[]\n"
