"""Answer-checked benchmark for wallman-lab.

Usage (from the repository root):

    python3 bench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Workloads: model-search, predicate-sweep, map-search, cli-queries (see
BENCHMARK.json for why each was chosen).  Every pass runs in a fresh child
interpreter (bench/child.py) that builds its inputs from the seed, makes its
queries one after another (one client, closed loop, single thread), then
checks every answer and compares its digest with bench/pinned.json.

--trace 0 runs enough passes to fill about S seconds, each asking the same
queries in its own order with the host meter running (bench/hostmeter.py),
and reports the end-to-end metrics.  --trace 1 runs one untraced and one
traced pass of the same inputs, both without the meter, and reports the
per-layer metrics and the tracing overhead.

Prints a readable report, then one JSON line with correct, attempted, failed
and metrics.  Writes the full result to bench/out/results/.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("model-search", "predicate-sweep", "map-search", "cli-queries")
# Nominal seconds of one pass (set-up, queries and checks) on a 2-core
# x86-64 machine under CPython 3.11; --seconds / this is the pass count.
PASS_SECONDS = {"model-search": 30.0, "predicate-sweep": 10.0, "map-search": 9.0, "cli-queries": 3.5}
MIN_SETUPS = 5  # set-up samples per run; passes are topped up with set-up-only children
RUN_CAP_S = 170.0  # the whole run ends well within 180 s
CHILD_CAP_S = 150.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def commit():
    """HEAD of the checkout when it is a git work tree, read without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            loose = git / ref
            if loose.is_file():
                return loose.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
        return head
    except OSError:
        pass
    return "unknown"


class Runner:
    """Starts child passes one at a time and keeps the whole run under RUN_CAP_S."""

    def __init__(self, workload, seed, meter=True):
        self.workload, self.seed, self.meter = workload, seed, meter
        self.started = time.perf_counter()
        self.work = OUT_DIR / f"work-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.planned = 1  # queries per pass, known once a pass has printed its plan

    def child(self, pass_index, setup_only=False, trace=False):
        """One child; returns (summary or None, query records, planned query
        count, why the child gave no summary)."""
        budget = min(CHILD_CAP_S, RUN_CAP_S - (time.perf_counter() - self.started))
        planned = self.planned
        if budget <= 1:
            return None, [], planned, "run time cap reached before the pass started"
        work_dir = self.work / f"pass-{pass_index}{'-setup' if setup_only else ''}{'-trace' if trace else ''}"
        argv = [
            sys.executable, str(BENCH_DIR / "child.py"),
            "--workload", self.workload, "--seed", str(self.seed), "--pass-index", str(pass_index),
            "--work-dir", str(work_dir),
        ]
        argv += ["--setup-only"] * setup_only + ["--trace"] * trace + ["--meter"] * self.meter
        t0 = time.perf_counter()
        argv += ["--t0", repr(t0)]
        # A session of its own, so a kill also reaches the CLI processes it runs.
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            stdout, stderr = proc.communicate(timeout=budget)
            note = f"exit {proc.returncode}: {stderr.strip()[-300:]}"
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            stdout, _ = proc.communicate()
            note = f"killed after {budget:.0f} s"
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        summary, records = None, []
        for line in stdout.splitlines():
            try:
                msg = json.loads(line)
            except ValueError:  # the last line of a killed child can be cut short
                continue
            if "plan" in msg:
                planned = msg["plan"]
                if not setup_only:
                    self.planned = planned
            elif "query" in msg:
                records.append(msg["query"])
            else:
                summary = dict(msg["pass"], records=records)
        return summary, records, planned, None if summary is not None else note

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


def run_passes(runner, seconds, trace):
    """Returns finished pass summaries, set-up samples, queries attempted,
    failed queries and problems that are not tied to one query."""
    passes, setups, failed, problems = [], [], [], []
    attempted = 0
    if trace:
        plan = [(0, False, False), (0, False, True)]
    else:
        count = max(1, int(seconds / PASS_SECONDS[runner.workload] + 0.5))
        plan = [(i, False, False) for i in range(count)]
        plan += [(count + i, True, False) for i in range(max(0, MIN_SETUPS - count))]
    for pass_index, setup_only, traced in plan:
        summary, records, planned, note = runner.child(pass_index, setup_only, traced)
        if setup_only:
            if summary is None:
                problems.append(f"set-up child {pass_index}: {note}")
            else:
                setups.append(summary)
            continue
        attempted += max(planned, len(records))
        failed += [f"{r['key']}: {r['failure']}" for r in records if r["failure"]]
        if summary is None:  # a killed or crashed pass fails every query it did not finish
            failed += [f"pass {pass_index}: {note}"] * (planned - len(records))
            continue
        setups.append(summary)
        summary["traced"] = traced
        passes.append(summary)
        problems += [f"pass {pass_index}: {p}" for p in summary["problems"]]
    return passes, setups, attempted, failed, problems


def report(workload, seed, trace, values, units, info, attempted, failed, problems, result_path):
    lines = [f"wallman-lab benchmark: workload {workload}, seed {seed}, trace {trace}"]
    lines.append(f"  queries attempted {attempted}, failed {len(failed)}, "
                 f"fail_ratio {len(failed) / attempted:.6g}")
    for key, value in info.items():
        if key != "hot_calls":
            lines.append(f"  {key}: {value}")
    for name, value in values.items():
        moves = f"  -> {metrics.MOVES[name]}" if name in metrics.MOVES else ""
        lines.append(f"  {name:28s} {value:14.6g} {units[name]:6s}{moves}")
    for row in info.get("hot_calls", []):
        lines.append(f"  hot {row['caller']:>12s} -> {row['callee']:40s} {row['calls']:9d} calls {row['total_s']:9.4f} s")
    for failure in (problems + failed)[:10]:
        lines.append(f"  FAILED {failure}")
    lines.append(f"  result file: {result_path.relative_to(ROOT)}")
    print("\n".join(lines))


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "wallman_lab" / "__init__.py").is_file():
        print(f"wallman-lab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed, meter=not args.trace)
    try:
        passes, setups, attempted, failed, problems = run_passes(runner, args.seconds, args.trace)
    finally:
        runner.close()
    if not passes:
        print("no pass finished: " + "; ".join((problems + failed)[:3]), file=sys.stderr)
        return 1
    kinds = collections.Counter(r["kind"] for p in passes for r in p["records"])
    info = {"passes": len(passes), "queries_by_kind": dict(kinds)}
    if args.trace:
        untraced, traced = passes if len(passes) == 2 else (None, None)
        if traced is None or not traced["traced"]:
            print("traced run needs both its untraced and traced pass", file=sys.stderr)
            return 1
        values = metrics.per_layer(traced, untraced)
        info["hot_calls"] = metrics.hot_calls(traced)
    else:
        values, extra = metrics.end_to_end(passes, setups)
        info.update(extra, setups=len(setups))
    correct = not failed and not problems
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "attempted": attempted,
        "failed": len(failed),
        "fail_ratio": len(failed) / attempted,
        "info": info,
        "metrics": values,
        "failed_queries": failed,
        "problems": problems,
        "passes": passes,
    }
    results_dir = OUT_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    result_path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(result, indent=1))
    gated = dict(metrics.PER_LAYER if args.trace else metrics.END_TO_END)
    units = {**gated, **dict(metrics.REPORTED)}
    report(args.workload, args.seed, args.trace, values, units, info, attempted, failed, problems, result_path)
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in gated.items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
