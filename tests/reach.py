"""The statements of src/ramify that the tier-1 suite, or the benchmark's
workloads, never execute.

Run from the repository root, with any extra pytest arguments:

    python tests/reach.py [pytest args]
    python tests/reach.py --workloads [--seed N]

The first form runs pytest on tests/ in this process under a sys.settrace
line tracer that follows only frames of src/ramify, then prints each
statement that no line event reached, as path:line and its source, and
their count last.  A statement is reached when any of its own lines ran:
the lines of its span that no nested statement holds, so an `else:` or
`except` line counts for its `if` or `try`.  Docstrings are not statements.

The tracer slows the suite several times over, so the tests that bound wall
time are deselected, and Hypothesis runs without its health checks; its
examples are derandomized, so the count is the same from run to run.  The
file is not named test_*.py, so pytest does not collect it.

With --workloads it instead traces one pass of each workload of
bench/workloads.py (seed 7 unless given) through ramify.cli.main, and prints
the statements that no workload reaches, then each workload's own count.
The import of ramify.cli is traced once and counts for every workload, and
the field and series-ring caches are emptied before each pass, so a
workload's count does not depend on the ones traced before it.
"""

import argparse
import ast
import importlib
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ramify"
BENCH = ROOT / "bench"
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


def trace(run) -> tuple:
    """Call run(); return its result and {path: lines run}."""
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

    sys.settrace(call)
    try:
        result = run()
    finally:
        sys.settrace(None)
    return result, hits


def unexecuted(hits: dict) -> list:
    """path:line and source of each statement with none of its lines hit."""
    out = []
    for name in sorted(hits):
        path = Path(name)
        source = path.read_text().splitlines()
        out += [f"{path.relative_to(ROOT)}:{first}: {source[first - 1].strip()}"
                for first, own in sorted(statements(path).items())
                if not own & hits[name]]
    return out


def union(*hit_maps) -> dict:
    return {name: set().union(*(h[name] for h in hit_maps))
            for name in hit_maps[0]}


def workload_hits(seed: int) -> dict:
    """{workload: {path: lines run}} over one pass of each workload."""
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode = True  # leave no cache files in bench/
    import workloads
    from run import run_doc

    cli, imported = trace(lambda: importlib.import_module("ramify.cli"))
    from ramify import gf, series
    out = {}
    for name in workloads.WORKLOADS:
        docs = workloads.build(name, seed).docs
        gf._FIELD_CACHE.clear()
        series._ring.cache_clear()
        _, hits = trace(lambda: [run_doc(cli, doc) for doc in docs])
        out[name] = union(imported, hits)
    return out


def main(argv: list) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0],
                                 allow_abbrev=False)
    ap.add_argument("--workloads", action="store_true")
    ap.add_argument("--seed", type=int, default=7)
    args, rest = ap.parse_known_args(argv)
    sys.path.insert(0, str(SRC.parent))
    if args.workloads:
        per = workload_hits(args.seed)
        missed = unexecuted(union(*per.values()))
        print(*missed, sep="\n")
        for name, hits in per.items():
            print(f"{name}: {len(unexecuted(hits))} statements unexecuted")
        print(f"{len(missed)} statements that no workload executes "
              f"(seed {args.seed})")
        return 0
    code, hits = trace(lambda: pytest.main(
        ["-q", "-p", "no:cacheprovider", "-k", DESELECT, str(ROOT / "tests"),
         *rest], plugins=[HypothesisProfile]))
    missed = unexecuted(hits)
    print(*missed, sep="\n")
    print(f"{len(missed)} statements unexecuted (pytest exit code {code})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
