"""Self-tests of the benchmark.  Run with:  python3 -m pytest bench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

import reference
import run
import spans
import workloads

cli = run.load_program()
SPEC = json.loads((run.BENCH / "predictions.json").read_text())
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def passes():
    """One untraced and one traced pass of every workload at seed 0."""
    out = {}
    for name in workloads.WORKLOADS:
        wl = workloads.build(name, 0)
        plain = run.run_phase(cli, wl.docs, 0, passes=1)
        tracer = spans.Tracer()
        with spans.hooked(tracer):
            traced = run.run_phase(cli, wl.docs, 0, passes=1)
        out[name] = (wl, plain, traced, tracer)
    return out


def test_every_layer_metric_is_nonzero_on_its_workload(passes):
    for entry in SPEC["predictions"]:
        for name in entry["moves"]:
            _, plain, traced, tracer = passes[name]
            values = spans.layer_metrics(tracer, len(traced.times), plain.wall,
                                         traced.wall)
            for metric in entry["metrics"]:
                assert values[metric]["value"] > 0, (metric, name)


def test_tracing_leaves_the_output_digest_unchanged(passes):
    for name, (wl, plain, traced, _) in passes.items():
        assert plain.digest(len(wl.docs)) == traced.digest(len(wl.docs)), name


def test_only_known_failures_at_this_commit(passes):
    for name, (wl, plain, traced, _) in passes.items():
        verdict = run.judge(wl.docs, [plain, traced], run.known_failures(name))
        assert verdict["unknown_failures"] == [], name


def test_hooks_replace_names_where_they_are_looked_up():
    from ramify import ascover, series, tower
    originals = (series.compose, ascover.standard_form_poly)
    with spans.hooked(spans.Tracer()):
        assert tower.compose is series.compose is not originals[0]
        assert tower.standard_form_poly is ascover.standard_form_poly
        assert tower.standard_form_poly is not originals[1]
    assert (series.compose, ascover.standard_form_poly) == originals
    assert tower.compose is originals[0]
    assert tower.standard_form_poly is originals[1]


def test_self_time_excludes_child_spans():
    tracer = spans.Tracer()
    inner = tracer.span("inner", lambda: sum(range(20000)))
    outer = tracer.span("outer", lambda: inner() + inner())
    outer()
    calls, total, self_s = tracer.spans["outer"]
    assert calls == 1 and tracer.calls("inner") == 2
    assert self_s == pytest.approx(total - tracer.spans["inner"][1])


def test_metric_names_match_benchmark_json():
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(spans.LAYER_METRICS)
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for name, (unit, _) in spans.PER_DOC.items():
        assert units[name] == unit
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)
    assert set(SPEC["workloads"]) == set(workloads.WORKLOADS)
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", "desk-docs",
         "--seed", "3", "--seconds", "0.2", "--trace", "0"],
        capture_output=True, text=True, check=True, timeout=120)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "desk-docs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_generators_are_seeded_and_stratified():
    for name in workloads.WORKLOADS:
        a, b = workloads.build(name, 5), workloads.build(name, 5)
        assert [d.text for d in a.docs] == [d.text for d in b.docs]
        other = workloads.build(name, 6)
        assert Counter(d.stratum for d in a.docs) == Counter(d.stratum for d in other.docs)
        assert Counter(d.family for d in a.docs) == Counter(d.family for d in other.docs)


def test_ratios_divide_by_the_reference_time_around_each_run():
    ph = run.Phase()
    ph.times = [2.0, 3.0]
    ph.bursts = [(1, 0.5), (3, 0.5), (1, 1.0)]   # mean 0.5, 0.25 and 1.0 s
    assert ph.ratios() == [2.0 * 4 / 1.0, 3.0 * 4 / 1.5]


def test_calibration_runs_the_reference_loop_at_least_once():
    calls, seconds = run.calibrate(0)
    assert calls == 1 and seconds > 0
    calls, seconds = run.calibrate(0.01)
    assert calls >= 1 and seconds >= 0.01


def test_doc_median_weighs_every_document_the_same():
    keys = [(0, 0, ""), (1, 0, ""), (2, 0, ""), (0, 0, ""), (1, 0, ""), (2, 0, "")]
    assert run.doc_median(keys, [1.0, 5.0, 9.0, 3.0, 7.0, 11.0]) == 6.0


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.min_docs(500) == 20 and run.min_docs(999) == 10000
    assert run.tail([float(i) for i in range(20)], 500) == 9.0
    assert run.tail([float(i) for i in range(100)], 900) == 89.0
    with pytest.raises(ValueError):
        run.tail([1.0] * 19, 500)


# -- the reference math --------------------------------------------------------

def test_closed_form_n_count_matches_enumeration():
    for q in (2, 3, 4, 5, 8, 9, 25):
        p = reference.prime_of(q)
        for m in (k for k in range(1, 13) if k % p):
            for s in range(1, m + 1):
                for sigma in (Fraction(1), Fraction(7, 3), Fraction(23, 2), Fraction(30)):
                    assert (reference.n_count_closed(q, m, s, sigma)
                            == reference.n_count_enumerated(q, m, s, sigma)), (q, m, s, sigma)


def test_reference_fields_use_the_documented_moduli():
    from ramify.gf import field_create
    for (p, a), tail in reference.MODULI.items():
        assert field_create(p, a).modulus == tail + (1,)
        F = reference.GF(p, a)
        units = [F.from_index(i) for i in range(1, F.q)]
        assert all(F.mul(x, F.div(F.one(), x)) == F.one() for x in units)


def test_herbrand_reference_on_the_quaternion_germ():
    upper = reference.herbrand_upper(8, [(1, 8), (3, 2)])
    assert upper == [(Fraction(1), 8), (Fraction(3, 2), 2)]
    assert reference.genus_from_lower(2, [1, 1, 3]) == 1
    assert reference.genus_from_lower(2, [3, 19]) == 11
