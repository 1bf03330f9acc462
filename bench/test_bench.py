"""Tests of the benchmark harness itself.

Run from the repository root: PYTHONPATH=src python3 -m pytest bench/test_bench.py
"""

import json
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import hostmeter  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from wallman_lab.enumeration import lattices_of_size  # noqa: E402
from wallman_lab.modelfinder import ExhaustedNoModel  # noqa: E402

PINS = checks.Pins(BENCH_DIR / "pinned.json")


def test_benchmark_json_matches_the_metrics_the_harness_prints():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(metrics.PER_LAYER)
    assert run.WORKLOADS == workloads.WORKLOADS


class FakeRunner:
    """Hands run_passes prepared child results instead of starting processes."""

    workload = "predicate-sweep"

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)

    def child(self, pass_index, setup_only=False, trace=False):
        return self.outcomes.pop(0)


def summary():
    return {"setup_s": 0.5, "setup_raw_s": 0.6, "wall_s": 1.0, "wall_raw_s": 1.2, "peak_rss_mb": 20.0, "timers": {}, "problems": []}


def test_tampered_answers_are_counted_in_fail_ratio():
    L = lattices_of_size(5)[1]
    builtins = workloads.builtin_sentences()
    queries = [
        workloads.small_theory_query((0, 2, 4)),  # a ^ b = 0, a != 0, b != 0: has a model
        workloads.fol_query("fol:5:1", L, builtins, {}),
        workloads.lattice_query("lat:5:1", L),
    ]
    answers = [q.run() for q in queries]
    assert [checks.verdict(q, a, None, PINS) for q, a in zip(queries, answers)] == [None] * 3

    # A wrong verdict fails its independent check ...
    assert "one of size" in checks.verdict(queries[0], ExhaustedNoModel(4), None, PINS)
    # ... and a self-consistent but different answer fails its digest.
    flipped = {k: [not v for v in vs] for k, vs in answers[1].items()}
    assert queries[1].check(flipped) == []
    assert "differs from pinned" in checks.verdict(queries[1], flipped, None, PINS)

    records = [
        {"key": q.key, "kind": q.kind, "latency_s": 0.1, "failure": checks.verdict(q, a, None, PINS)}
        for q, a in zip(queries, [ExhaustedNoModel(4), flipped, answers[2]])
    ]
    runner = FakeRunner([(summary(), records, 3, None)] * run.MIN_SETUPS)
    passes, setups, attempted, failed, problems = run.run_passes(runner, seconds=1, trace=False)
    assert (attempted, len(failed), problems) == (3, 2, [])


def test_a_killed_pass_fails_the_queries_it_did_not_finish():
    ok = [{"key": "k", "kind": "x", "latency_s": 0.1, "failure": None}]
    setup_only = [(summary(), [], 0, None)] * (run.MIN_SETUPS - 2)
    runner = FakeRunner([(summary(), ok * 4, 4, None), (None, ok, 4, "killed after 150 s")] + setup_only)
    seconds = 2 * run.PASS_SECONDS[runner.workload]  # two passes, then set-up-only children
    passes, setups, attempted, failed, problems = run.run_passes(runner, seconds, trace=False)
    assert (len(passes), attempted, len(failed)) == (1, 8, 3)
    assert all("killed" in f for f in failed)


def test_tail_percentile_keeps_ten_queries_beyond_it():
    assert metrics.tail_percentile(99) == 50
    assert metrics.tail_percentile(100) == 90
    assert metrics.tail_percentile(1000) == 99
    assert metrics.percentile([1, 2, 3, 4], 50) == 2


def test_tracing_counts_calls_under_every_import_name_and_splits_self_time():
    code = """
import json, tracing
tracer = tracing.install()
from wallman_lab.fol import Theory, parse
from wallman_lab.modelfinder import SearchBudget, find_model
two_middles = "E x. E y. (!(x = y) & !(x = 0) & !(x = 1) & !(y = 0) & !(y = 1))"
find_model(Theory((), (parse(two_middles),)), SearchBudget(max_size=4))
print(json.dumps(tracer.snapshot()))
"""
    env = {"PYTHONPATH": f"{BENCH_DIR.parent / 'src'}:{BENCH_DIR}", "PATH": ""}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    snap = json.loads(out.stdout)
    calls, edges = snap["calls"], snap["edges"]
    assert calls["modelfinder.find_model"][0] == 1
    assert edges["modelfinder>fol.eval_formula"][0] == calls["fol.eval_formula"][0] > 0
    assert snap["first"]["enumeration.lattices_of_size(4)"][1] == 2
    for count, total, own in calls.values():
        assert 0 <= own <= total + 1e-9


def test_a_repeated_query_counts_once_at_its_fastest_run():
    records = [{"key": k, "kind": "x", "latency_s": t, "failure": None} for k, t in [("a", 3), ("b", 2), ("a", 1)]]
    values, info = metrics.end_to_end([dict(summary(), records=records)], setups=[summary()])
    assert info["queries_timed"] == 2
    assert values["query_p50_ms"] == 1000 and values["query_tail_ms"] == 1000


def test_the_host_meter_takes_its_slices_out_of_in_process_queries():
    meter = hostmeter.HostMeter()
    meter.starts, meter.ends, meter.cpu = [1.0, 2.0, 3.0], [1.5, 2.5, 3.5], [0.4, 0.2, 0.3]
    assert meter.inside(1.2, 3.0) == 0.3 + 0.5
    assert meter.inside(3.6, 4.0) == 0
    assert meter.slice_s(1.5, 3.5) == 0.25  # the slices that started at 2.0 and 3.0
    assert meter.slice_s(4.0, 5.0) == 0.3  # none started then: all of them
    with hostmeter.HostMeter() as running:
        time.sleep(5 * hostmeter.PERIOD_S)
    assert len(running.cpu) > 1 and not running._thread.is_alive()
    assert hostmeter.reference_slice() == [False, True, False, False, True, True, True, False, True]


def test_every_pass_of_a_run_asks_the_same_queries_in_its_own_order(tmp_path):
    plans = [workloads.build("map-search", 7, i, tmp_path) for i in range(2)]
    keys = [[q.key for q in plan.queries] for plan in plans]
    assert sorted(keys[0]) == sorted(keys[1]) and keys[0] != keys[1]
    other = [q.key for q in workloads.build("map-search", 8, 0, tmp_path).queries]
    assert sorted(other) != sorted(keys[0])
