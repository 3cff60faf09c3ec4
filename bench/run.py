"""The ramify benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Drives `ramify.cli.main` in this process: a closed loop with one client, no
threads or pool.  A run repeats whole passes over the workload's seeded
documents (see workloads.py), after one untimed warm-up pass, until about S
seconds have passed and enough documents have run for the workload's tail
percentile, then checks every output against the reference computed by the
benchmark itself.

Document times are reported in units of a fixed reference loop
(`reference_work`, Fraction arithmetic and json, independent of ramify) that
runs in short calibration bursts between the documents: each document's time
is divided by the mean time of the reference loop in the bursts right before
and right after it.  On a shared host a vCPU runs the same code at two speeds
about a factor of two apart, switching within milliseconds, in a mix that
changes from one minute to the next; milliseconds measure that mix, a ratio
to a loop timed at the same moment mostly cancels it.  The raw milliseconds
are in the detail line.

--trace 0 reports the end-to-end metrics.  --trace 1 runs the same passes
untraced and then traced (spans and counters hooked from outside, see
spans.py) and reports the per-layer metrics, including the tracing
overhead; the traced outputs must hash to the untraced ones.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The line before it holds the details: the
tail percentile and sample count, the sha256 of one pass of outputs, the
failures by document family and reason, and (traced) the span table.

`correct` is false when an output fails in a way not listed under
known_failures in predictions.json, when a document's output changes between
passes, or when tracing changes the outputs.  Listed failures are the
defects of the program at the time the benchmark was written; they still
count in `failed` and in pass_ratio.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

TAIL_BEYOND = 10         # samples that must lie beyond the tail percentile
SETUP_REPEATS = 7
UNTRACED_SHARE = 1 / 3   # of --seconds, in a traced run
REF_SHARE = 0.1          # calibration before a document, as a share of its time

SETUP_CODE = """\
import sys, time
sys.path.insert(0, {src!r})
t0 = time.perf_counter()
import ramify.cli
from ramify.gf import field_create
for p, a in {fields!r}:
    field_create(p, a)
print(time.perf_counter() - t0)
"""


def measure_setup(fields) -> list[float]:
    """Seconds to import ramify.cli and build the fields, each time in a
    fresh interpreter."""
    code = SETUP_CODE.format(src=str(SRC), fields=list(fields))
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def reference_work():
    """The reference loop: fixed Fraction arithmetic and a json round trip,
    about 0.2 ms.  Its time is the unit of the end-to-end document times."""
    s = Fraction(0)
    for i in range(1, 40):
        s += Fraction(i, i + 1)
    return json.loads(json.dumps({"a": [1, 2, [3, 4]], "s": str(s)}))


def calibrate(budget: float) -> tuple[int, float]:
    """(calls, seconds) of the reference loop, repeated until `budget`
    seconds have passed, at least once."""
    clock = time.perf_counter
    t0 = clock()
    calls = 0
    while True:
        reference_work()
        calls += 1
        elapsed = clock() - t0
        if elapsed >= budget:
            return calls, elapsed


def run_doc(cli, doc):
    """(exit code or None on an exception, output text, seconds, error)."""
    stdin, stdout = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(doc.text), io.StringIO()
    error = None
    try:
        t0 = time.perf_counter()
        try:
            code = cli.main(list(doc.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a failed document
            code, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        text = sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout = stdin, stdout
    return code, text, elapsed, error


class Phase:
    """Timings and outputs of consecutive whole passes over the documents."""

    def __init__(self):
        self.times: list[float] = []
        self.keys: list[tuple] = []          # (doc index, code, sha256) per run
        self.outputs: dict[tuple, str] = {}  # first text seen for each key
        self.errors: dict[int, str] = {}
        self.bursts: list[tuple[int, float]] = []  # calibration around the runs
        self.passes = 0
        self.wall = 0.0

    def ratios(self) -> list[float]:
        """Each run's time over the mean reference-loop time of the bursts
        right before and right after it."""
        out = []
        for k, t in enumerate(self.times):
            (c0, s0), (c1, s1) = self.bursts[k], self.bursts[k + 1]
            out.append(t * (c0 + c1) / (s0 + s1))
        return out

    def digest(self, per_pass: int) -> str:
        h = hashlib.sha256()
        for i, code, sha in self.keys[:per_pass]:
            h.update(f"{i} {code} {sha}\n".encode())
        return h.hexdigest()


def min_docs(tail_per_mille: int) -> int:
    """Samples needed for TAIL_BEYOND of them to lie beyond the percentile."""
    return -(-TAIL_BEYOND * 1000 // (1000 - tail_per_mille))


def run_phase(cli, docs, seconds: float, at_least: int = 1,
              passes: int | None = None, last: list | None = None) -> Phase:
    """Whole passes until about `seconds` have gone and `at_least` documents
    have run, or exactly `passes` passes.  Given `last` (each document's
    previous time), a calibration burst of about REF_SHARE of the time of
    the documents on either side runs before each document and after the
    last one."""
    ph = Phase()
    prev = 0.0
    start = time.perf_counter()
    while True:
        for i, doc in enumerate(docs):
            if last is not None:
                ph.bursts.append(calibrate(REF_SHARE * max(prev, last[i])))
            code, text, elapsed, error = run_doc(cli, doc)
            prev = elapsed
            if last is not None:
                last[i] = elapsed
            key = (i, code, hashlib.sha256(text.encode()).hexdigest())
            if key not in ph.outputs:
                ph.outputs[key] = text
                if error:
                    ph.errors[i] = error
            ph.times.append(elapsed)
            ph.keys.append(key)
        ph.passes += 1
        so_far = time.perf_counter() - start
        if passes is not None:
            if ph.passes >= passes:
                break
        # stop at the pass boundary nearest to `seconds`
        elif (len(ph.times) >= at_least
              and so_far * (1 + 0.5 / ph.passes) >= seconds):
            break
    if last is not None:
        ph.bursts.append(calibrate(REF_SHARE * prev))
    ph.wall = time.perf_counter() - start
    return ph


def judge(docs, phases, known) -> dict:
    """Check every distinct output once; count failures per run."""
    verdicts = {}
    first_key = {}
    for ph in phases:
        for key, text in ph.outputs.items():
            if key not in verdicts:
                verdicts[key] = docs[key[0]].check(key[1], text)
            first_key.setdefault(key[0], key)
    attempted = failed = refused = 0
    groups: dict[tuple, int] = {}
    for ph in phases:
        for key in ph.keys:
            attempted += 1
            verdict, reason = verdicts[key]
            if key != first_key[key[0]]:
                verdict, reason = "failed", "nondeterministic"
            if verdict == "refused":
                refused += 1
            if verdict == "failed":
                failed += 1
                group = (docs[key[0]].family, reason)
                groups[group] = groups.get(group, 0) + 1
    unknown = sorted(g for g in groups if g not in known)
    errors = {docs[i].family: err for ph in phases for i, err in ph.errors.items()}
    return {"attempted": attempted, "failed": failed, "refused": refused,
            "failures": [{"family": f, "reason": r, "runs": n, "known": (f, r) in known}
                         for (f, r), n in sorted(groups.items())],
            "unknown_failures": [list(g) for g in unknown],
            "exceptions": errors}


def tail(values: list[float], per_mille: int) -> float:
    """The nearest-rank percentile; TAIL_BEYOND samples must lie beyond it."""
    n = len(values)
    rank = -(-per_mille * n // 1000)
    if n - rank < TAIL_BEYOND:
        raise ValueError(f"{n} samples are too few for percentile {per_mille / 10}")
    return sorted(values)[rank - 1]


def doc_median(keys: list[tuple], values: list[float]) -> float:
    """The median over the documents of each document's median value.  Every
    document runs once a pass, so each counts the same; a median over the
    runs themselves would jump between two documents of unequal cost."""
    per_doc: dict[int, list[float]] = {}
    for key, value in zip(keys, values):
        per_doc.setdefault(key[0], []).append(value)
    return statistics.median(statistics.median(v) for v in per_doc.values())


def known_failures(workload: str) -> set:
    spec = json.loads((BENCH / "predictions.json").read_text())
    return {(k["family"], k["reason"]) for k in spec["known_failures"]
            if k["workload"] == workload}


def load_program():
    """Import ramify.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "ramify" / "cli.py").is_file():
        raise SystemExit(f"bench: no program at {SRC / 'ramify'}")
    sys.path.insert(0, str(SRC))
    from ramify import cli
    if Path(cli.__file__).resolve().parent != SRC / "ramify":
        raise SystemExit(f"bench: ramify.cli imported from {cli.__file__}")
    return cli


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"workload must be one of {', '.join(workloads.WORKLOADS)}")
    cli = load_program()
    wl = workloads.build(args.workload, args.seed)
    known = known_failures(wl.name)
    setup = [] if args.trace else measure_setup(wl.fields)
    from ramify.gf import field_create
    for p, a in wl.fields:
        field_create(p, a)

    docs = wl.docs
    details = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
               "docs_per_pass": len(docs)}
    warm = run_phase(cli, docs, 0, passes=1)   # untimed: lazy set-up, caches
    if args.trace:
        plain = run_phase(cli, docs, args.seconds * UNTRACED_SHARE)
        tracer = spans.Tracer()
        with spans.hooked(tracer):
            traced = run_phase(cli, docs, 0, passes=plain.passes)
        phases = [plain, traced]
        metrics = spans.layer_metrics(tracer, len(traced.times), plain.wall,
                                      traced.wall)
        same = plain.digest(len(docs)) == traced.digest(len(docs))
        details.update(passes=plain.passes, traced_output_matches=same,
                       spans=tracer.table())
    else:
        ph = run_phase(cli, docs, args.seconds, min_docs(wl.tail_per_mille),
                       last=list(warm.times))
        phases = [ph]
        same = True
        ratios = ph.ratios()
        times_ms = [t * 1e3 for t in ph.times]
        ref_ms = [s / c * 1e3 for c, s in ph.bursts]
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "docs_per_kref": {"value": 1000 * len(ratios) / sum(ratios),
                              "unit": "1/kref"},
            "doc_p50_ref": {"value": doc_median(ph.keys, ratios), "unit": "ref"},
            "doc_tail_ref": {"value": tail(ratios, wl.tail_per_mille),
                             "unit": "ref"},
        }
        details.update(passes=ph.passes, samples=len(ratios),
                       tail_percentile=wl.tail_per_mille / 10,
                       setup_samples_s=setup, wall_s=ph.wall,
                       raw={"docs_per_s": len(times_ms) / sum(ph.times),
                            "doc_p50_ms": doc_median(ph.keys, times_ms),
                            "doc_tail_ms": tail(times_ms, wl.tail_per_mille),
                            "ref_p50_ms": statistics.median(ref_ms),
                            "ref_min_ms": min(ref_ms)})

    verdict = judge(docs, phases, known)
    attempted, failed = verdict["attempted"], verdict["failed"]
    if not args.trace:
        metrics["pass_ratio"] = {"value": (attempted - failed) / attempted,
                                 "unit": "ratio"}
        metrics["peak_rss_mb"] = {"value": rss_mb, "unit": "MiB"}
    details.update(verdict, fail_ratio=failed / attempted,
                   output_sha256=phases[0].digest(len(docs)))
    correct = not verdict["unknown_failures"] and same
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
