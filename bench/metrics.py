"""Metric names, units and how they are computed from pass summaries.

BENCHMARK.json lists the same names and units; test_bench.py keeps the two
in step.  MOVES records, for each per-layer metric, the end-to-end metric and
workload it should move, so a proposed change can cite both by name.
"""

from __future__ import annotations

import math
import statistics

from tracing import LAYERS

# End-to-end metrics in the result line, each with a bound in BENCHMARK.json.
# The two times are scaled to the host's nominal speed by the host meter that
# runs alongside them (see hostmeter.py); REPORTED keeps them as measured.
END_TO_END = (
    ("wall_s", "s"),  # time inside a pass's queries; median over passes
    ("setup_s", "s"),  # child start to first timed call; median over children
    ("peak_rss_mb", "MB"),  # peak resident memory of a pass child; median over passes
)
# Printed and kept in the result file, without a bound.  fail_ratio (also in
# the result line's attempted/failed) is 0 on a correct program.  Over ten
# seeds on a shared 2-core VM the latency percentiles, which rest on
# sub-millisecond queries, spread by up to a quarter of their median, the
# largest bound a metric may have.
REPORTED = (
    # wall_s and setup_s as measured.  On a shared host they move by a
    # quarter between runs of the same code.
    ("wall_raw_s", "s"),
    ("setup_raw_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_tail_ms", "ms"),  # highest percentile with at least 10 queries beyond it
)

TAIL_PERCENTILES = (50, 90, 95, 99, 99.9)
# Per-layer metric prefix -> the one traced function it reports.
SINGLE_FUNCTION = {
    "lattice.validate": "lattice.validate",
    "fol.eval": "fol.eval_formula",
    "homsearch.morphism": "homsearch.find_L_morphism",
    "homsearch.embedding": "homsearch.find_lattice_embedding",
    "ef.game": "ef.ef_equivalent",
    "wallman.space": "wallman.wallman_space",
}
# The direct lattice predicates and the helpers only they call.
PREDICATES = (
    "is_distributive",
    "is_disjunctive",
    "is_normal",
    "conn",
    "satisfies_HI",
    "satisfies_dim_le1",
    "find_chicane",
    "is_pliand",
    "chicane_identities_hold",
)


def _per_module():
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.self_s", "s"), (f"{layer}.calls", "count"), (f"{layer}.share", "ratio")]
    return tuple(out)


PER_LAYER = _per_module() + (
    ("enumeration.n9_s", "s"),
    ("enumeration.n10_s", "s"),
    ("enumeration.lattices", "count"),
    ("enumeration.setup_s", "s"),
    ("lattice.validate.calls", "count"),
    ("lattice.validate.self_s", "s"),
    ("lattice.predicates.calls", "count"),
    ("lattice.predicates.self_s", "s"),
    ("fol.eval.calls", "count"),
    ("fol.eval.self_s", "s"),
    ("fol.eval_per_s", "1/s"),
    ("fol.eval_over_direct", "ratio"),
    ("fol.parse.self_s", "s"),
    ("modelfinder.queries", "count"),
    ("homsearch.morphism.calls", "count"),
    ("homsearch.morphism.self_s", "s"),
    ("homsearch.embedding.calls", "count"),
    ("homsearch.embedding.self_s", "s"),
    ("ef.game.calls", "count"),
    ("ef.game.self_s", "s"),
    ("ef.sentence.self_s", "s"),
    ("wallman.space.calls", "count"),
    ("wallman.space.self_s", "s"),
    ("intervals.ops", "count"),  # meets and joins of interval sets
    ("cli.import_ms", "ms"),
    ("cli.load_ms", "ms"),
    ("cli.command_ms", "ms"),
    ("cli.emit_ms", "ms"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

MOVES = {
    "enumeration.n9_s": "setup_s on predicate-sweep",
    "enumeration.n10_s": "wall_s on model-search",
    "enumeration.self_s": "wall_s on model-search; idle on map-search",
    "enumeration.setup_s": "setup_s on predicate-sweep and map-search",
    "lattice.validate.calls": "wall_s on model-search; query_p50_ms on cli-queries",
    "lattice.validate.self_s": "wall_s on model-search; query_p50_ms on cli-queries",
    "lattice.predicates.calls": "wall_s and query_tail_ms on predicate-sweep",
    "lattice.predicates.self_s": "wall_s and query_tail_ms on predicate-sweep",
    "fol.eval.calls": "wall_s on model-search; small on predicate-sweep; about 0 on map-search",
    "fol.eval.self_s": "wall_s on model-search; small on predicate-sweep; about 0 on map-search",
    "fol.eval_per_s": "wall_s on model-search",
    "fol.eval_over_direct": "wall_s on predicate-sweep",
    "fol.parse.self_s": "query_p50_ms on cli-queries",
    "modelfinder.self_s": "wall_s on model-search",
    "modelfinder.queries": "wall_s on model-search",
    "homsearch.morphism.calls": "wall_s and query_tail_ms on map-search; surject latency on cli-queries",
    "homsearch.morphism.self_s": "wall_s and query_tail_ms on map-search; surject latency on cli-queries",
    "homsearch.embedding.calls": "wall_s on map-search; embed latency on cli-queries",
    "homsearch.embedding.self_s": "wall_s on map-search; embed latency on cli-queries",
    "ef.game.calls": "wall_s on map-search",
    "ef.game.self_s": "wall_s on map-search",
    "ef.sentence.self_s": "wall_s on map-search",
    "wallman.space.calls": "wall_s on predicate-sweep",
    "wallman.space.self_s": "wall_s on predicate-sweep",
    "spaces.self_s": "wall_s on predicate-sweep",
    "intervals.ops": "wall_s on predicate-sweep",
    "intervals.self_s": "wall_s on predicate-sweep",
    "cli.import_ms": "query_p50_ms on cli-queries",
    "cli.load_ms": "query_p50_ms on cli-queries",
    "cli.command_ms": "query_p50_ms on cli-queries",
    "cli.emit_ms": "query_p50_ms on cli-queries",
}


def tail_percentile(count):
    """Highest percentile in TAIL_PERCENTILES with at least 10 samples beyond it."""
    return max(p for p in TAIL_PERCENTILES if count * (100 - p) / 100 >= 10 or p == 50)


def percentile(sorted_values, p):
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def end_to_end(passes, setups):
    """End-to-end metrics from finished pass summaries and the summaries of
    every child that finished its set-up.

    Every pass of a run asks the same queries, each pass in a fresh child and
    in its own order.  For the latency percentiles a query counts once, at
    its fastest run in any pass."""
    fastest = {}
    for p in passes:
        for r in p["records"]:
            key = r["key"]
            fastest[key] = min(fastest.get(key, r["latency_s"]), r["latency_s"])
    latencies = sorted(fastest.values())
    tail = tail_percentile(len(latencies))
    values = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "wall_raw_s": statistics.median(p["wall_raw_s"] for p in passes),
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "setup_raw_s": statistics.median(s["setup_raw_s"] for s in setups),
        "query_p50_ms": percentile(latencies, 50) * 1000,
        "query_tail_ms": percentile(latencies, tail) * 1000,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return values, {"tail_percentile": tail, "queries_timed": len(latencies)}


def _sum(calls, quals, field):
    return sum(calls.get(q, [0, 0.0, 0.0])[field] for q in quals)


def per_layer(traced, untraced):
    """Per-layer metrics from a traced pass and an untraced pass of the same inputs."""
    timed = traced["trace"]["timed"]["calls"]
    everything = traced["trace"]["all"]
    setup = {q: [a - b for a, b in zip(v, timed.get(q, [0, 0.0, 0.0]))] for q, v in everything["calls"].items()}
    wall = traced["wall_s"]
    CALLS, TOTAL, SELF = 0, 1, 2

    def layer_quals(layer):
        return [q for q in timed if q.split(".", 1)[0] == layer]

    def one(qual, field):
        return _sum(timed, [qual], field)

    out = {}
    for layer in LAYERS:
        quals = layer_quals(layer)
        out[f"{layer}.self_s"] = _sum(timed, quals, SELF)
        out[f"{layer}.calls"] = _sum(timed, quals, CALLS)
        out[f"{layer}.share"] = out[f"{layer}.self_s"] / wall
    first = everything["first"]
    out["enumeration.n9_s"] = first.get("enumeration.lattices_of_size(9)", [0.0])[0]
    out["enumeration.n10_s"] = first.get("enumeration.lattices_of_size(10)", [0.0])[0]
    out["enumeration.lattices"] = sum(count for _, count in first.values())
    out["enumeration.setup_s"] = _sum(setup, layer_quals("enumeration"), SELF)
    for prefix, qual in SINGLE_FUNCTION.items():
        out[f"{prefix}.calls"] = one(qual, CALLS)
        out[f"{prefix}.self_s"] = one(qual, SELF)
    predicates = [f"lattice.{name}" for name in PREDICATES]
    out["lattice.predicates.calls"] = _sum(timed, predicates, CALLS)
    out["lattice.predicates.self_s"] = _sum(timed, predicates, SELF)
    eval_total = one("fol.eval_formula", TOTAL)
    out["fol.eval_per_s"] = out["fol.eval.calls"] / eval_total if eval_total else 0.0
    timers = untraced["timers"]
    out["fol.eval_over_direct"] = timers["fol_s"] / timers["direct_s"] if timers.get("direct_s") else 0.0
    out["fol.parse.self_s"] = _sum(timed, ["fol.parse", "fol.parse_term"], SELF)
    out["modelfinder.queries"] = one("modelfinder.find_model", CALLS)
    out["ef.sentence.self_s"] = one("ef.strategy_to_sentence", SELF)
    out["intervals.ops"] = _sum(timed, ["intervals.meet", "intervals.join"], CALLS)
    stages = traced.get("cli_stages_ms", [])
    for stage in ("import_ms", "load_ms", "command_ms", "emit_ms"):
        out[f"cli.{stage}"] = statistics.median(s[stage] for s in stages) if stages else 0.0
    out["trace.overhead_s"] = wall - untraced["wall_s"]
    out["trace.overhead_ratio"] = out["trace.overhead_s"] / untraced["wall_s"]
    return out


def hot_calls(traced, limit=15):
    """The (caller layer, callee) pairs with the most time, as rows."""
    edges = traced["trace"]["timed"]["edges"]
    rows = sorted((kv for kv in edges.items() if kv[1][0]), key=lambda kv: -kv[1][1])[:limit]
    return [{"caller": k.split(">")[0], "callee": k.split(">")[1], "calls": v[0], "total_s": v[1]} for k, v in rows]
