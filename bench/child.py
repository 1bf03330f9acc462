"""One pass of one workload in a fresh interpreter; started by run.py.

Prints JSON lines on stdout: {"plan": <query count>} before the first timed
call, one {"query": {...}} record per query as soon as its answer has been
checked, and last {"pass": {...}} with the timings and, when traced, the
layer spans.  run.py counts every planned query without a record as failed,
so a pass that is killed fails its unfinished queries.

Each answer is checked right after its query and then dropped, outside the
timed region and with tracing paused: keeping thousands of answers alive
would slow the later queries through garbage collection.

With --meter the host meter (hostmeter.py) runs from the start of the child
to the end of its queries; the summary then gives setup_s and wall_s scaled
to the host's nominal speed, and setup_raw_s and wall_raw_s as measured.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

import hostmeter

BENCH_DIR = Path(__file__).resolve().parent


def emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def peak_rss_mb():
    """Peak resident memory of this process or of any CLI process it ran."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_queries(queries, pins, tracer=None, meter=None):
    """The timed queries, one after another (closed loop, one client).

    Emits a record per query and returns the seconds spent inside the
    queries; the checks between queries are not timed, nor are the host
    meter's slices that ran inside an in-process query."""
    import checks

    busy = 0.0
    for q in queries:
        start = time.perf_counter()
        try:
            answer, error = q.run(), None
        except Exception as err:  # a failed query is recorded, the pass goes on
            answer, error = None, f"{type(err).__name__}: {err}"
        end = time.perf_counter()
        latency = end - start
        if meter and q.in_process:
            latency -= meter.inside(start, end)
        elif meter:
            meter.launch()
        busy += latency
        with tracer.paused() if tracer else contextlib.nullcontext():
            try:
                failure = checks.verdict(q, answer, error, pins)
            except Exception as err:  # a check that cannot read the answer fails it
                failure = f"check raised {type(err).__name__}: {err}"
        emit({"query": {"key": q.key, "kind": q.kind, "latency_s": latency, "failure": failure}})
    return busy


def cli_trace_summary(paths):
    """Sum the layer spans of the traced CLI invocations; keep their stage times."""
    total = {"calls": {}, "edges": {}, "first": {}}
    stages = []
    for path in paths:
        if not path.is_file():
            continue
        data = json.loads(path.read_text())
        stages.append(data["stages_ms"])
        for part in ("calls", "edges"):
            for key, values in data["trace"][part].items():
                acc = total[part].get(key, [0] * len(values))
                total[part][key] = [a + b for a, b in zip(acc, values)]
    return total, stages


def parse_args():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, default=0)
    parser.add_argument("--t0", type=float, required=True, help="perf_counter() when the parent started this child")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--meter", action="store_true", help="run the host meter and scale the times by it")
    parser.add_argument("--work-dir", required=True)
    return parser.parse_args()


def run_pass(args, meter):
    """Set-up and queries; returns the summary with times as measured, the
    end of set-up and the end of the queries (perf_counter times)."""
    tracer = None
    if args.trace and args.workload != "cli-queries":  # CLI processes trace themselves
        import tracing

        tracer = tracing.install()
    # Imported after tracing is installed: both bind package functions at import.
    import checks
    import workloads

    plan = workloads.build(args.workload, args.seed, args.pass_index, Path(args.work_dir), traced=args.trace)
    emit({"plan": len(plan.queries)})
    if args.setup_only:
        first_call = time.perf_counter()
        return {"setup_raw_s": first_call - args.t0}, first_call, first_call

    pins = checks.Pins(BENCH_DIR / "pinned.json")
    if meter and not any(q.in_process for q in plan.queries):
        meter.stop()
    before = tracer.snapshot() if tracer else None
    first_call = time.perf_counter()
    wall_s = run_queries(plan.queries, pins, tracer, meter)
    last_call = time.perf_counter()
    rss = peak_rss_mb()
    after = tracer.snapshot() if tracer else None
    summary = {
        "setup_raw_s": first_call - args.t0,
        "wall_raw_s": wall_s,
        "peak_rss_mb": rss,
        "timers": plan.timers,
        "problems": checks.enumeration_problems(plan.sizes),
    }
    if tracer:
        summary["trace"] = {"timed": tracing.difference(after, before), "all": after}
    if plan.traces:
        timed, stages = cli_trace_summary(plan.traces)
        summary["trace"] = {"timed": timed, "all": timed}
        summary["cli_stages_ms"] = stages
    return summary, first_call, last_call


def scale(summary, meter, t0, first_call, last_call):
    """setup_s and wall_s: the times at the host's nominal speed when the
    meter ran, else as measured.  The meter's slices are taken out of the
    set-up, which runs in this process."""
    summary["setup_s"], summary["wall_s"] = summary["setup_raw_s"], summary.get("wall_raw_s")
    if meter is None:
        return
    ref = hostmeter.REF_SLICE_S
    setup_slice = meter.slice_s(t0, first_call)
    summary["setup_s"] = (summary["setup_raw_s"] - meter.inside(t0, first_call)) * ref / setup_slice
    summary["setup_slice_s"] = setup_slice
    if meter.launches:
        summary["launch_s"] = meter.launch_s()
        summary["wall_s"] = summary["wall_raw_s"] * hostmeter.REF_LAUNCH_S / summary["launch_s"]
    elif "wall_raw_s" in summary:
        query_slice = meter.slice_s(first_call, last_call)
        summary["wall_s"] = summary["wall_raw_s"] * ref / query_slice
        summary["query_slice_s"] = query_slice


def main():
    args = parse_args()
    meter = hostmeter.HostMeter() if args.meter else None
    with meter or contextlib.nullcontext():
        summary, first_call, last_call = run_pass(args, meter)
    scale(summary, meter, args.t0, first_call, last_call)
    emit({"pass": summary})
    return 0


if __name__ == "__main__":
    sys.exit(main())
