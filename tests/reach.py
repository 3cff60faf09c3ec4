"""The statements of src/ramify that the tier-1 suite never executes.

Run from the repository root, with any extra pytest arguments:

    python tests/reach.py [pytest args]

It runs pytest on tests/ in this process under a sys.settrace line tracer
that follows only frames of src/ramify, then prints each statement that no
line event reached, as path:line and its source, and their count last.  A
statement is reached when any of its own lines ran: the lines of its span
that no nested statement holds, so an `else:` or `except` line counts for
its `if` or `try`.  Docstrings are not statements.

The tracer slows the suite several times over, so the tests that bound wall
time are deselected, and Hypothesis runs without its health checks; its
examples are derandomized, so the count is the same from run to run.  The
file is not named test_*.py, so pytest does not collect it.
"""

import ast
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ramify"
DESELECT = "not test_long_documents_take_one_pass"


def statements(path: Path) -> dict:
    """{first line: own lines} of every statement of the file."""
    tree = ast.parse(path.read_text(), str(path))
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or (
                isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            continue
        own = set(range(node.lineno, node.end_lineno + 1))
        for inner in ast.walk(node):
            if inner is not node and isinstance(inner, ast.stmt):
                own -= set(range(inner.lineno, inner.end_lineno + 1))
        out[node.lineno] = own
    return out


class HypothesisProfile:
    """A pytest plugin: Hypothesis without health checks or deadlines, and
    derandomized, so that two runs on one tree draw the same examples."""

    @staticmethod
    def pytest_configure(config):
        from hypothesis import HealthCheck, settings
        settings.register_profile(
            "reach", suppress_health_check=list(HealthCheck), deadline=None,
            derandomize=True)
        settings.load_profile("reach")


def trace(args: list) -> tuple:
    """Run pytest with args; return its exit code and {path: lines run}."""
    hits = {str(path): set() for path in SRC.glob("*.py")}
    local = {}  # co_filename -> its line tracer, None outside src/ramify

    def tracer_for(lines):
        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line
        return line

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in local:
            lines = hits.get(os.path.realpath(name))
            local[name] = None if lines is None else tracer_for(lines)
        return local[name]

    sys.path.insert(0, str(SRC.parent))
    sys.settrace(call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "-k", DESELECT,
                            str(ROOT / "tests"), *args],
                           plugins=[HypothesisProfile])
    finally:
        sys.settrace(None)
    return code, hits


def main(args: list) -> int:
    code, hits = trace(args)
    missed = 0
    for name in sorted(hits):
        path = Path(name)
        source = path.read_text().splitlines()
        for first, own in sorted(statements(path).items()):
            if not own & hits[name]:
                missed += 1
                print(f"{path.relative_to(ROOT)}:{first}: "
                      f"{source[first - 1].strip()}")
    print(f"{missed} statements unexecuted (pytest exit code {code})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
