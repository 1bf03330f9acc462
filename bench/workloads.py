"""The benchmark's four workloads: seeded inputs, timed queries, answer checks.

A workload pass is built by `build(workload, seed, pass_index, work_dir)`.
The seed alone picks a run's queries, so every pass of a run asks the same
ones; the pass index only sets the order they are asked in.  Building is
the pass's set-up (input generation and, for predicate-sweep and
map-search, enumerating the input lattices); each query's `run` is one
timed top-level call into the package; `check` re-verifies the answer
without trusting the layer that produced it; `view` is the part of the
answer that is digested and compared with the pinned digest of `key`.

`universe(workload, work_dir)` yields one query per pinned key, so that
`pin.py` can pin every answer a seed can ask for.

Import this module only after tracing (if any) is installed: it binds the
package functions it calls at import time.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import checks
from wallman_lab.ef import ef_equivalent, strategy_to_sentence
from wallman_lab.enumeration import lattices_of_size
from wallman_lab.fol import (
    Not,
    Theory,
    bind_constants,
    builtin_HI,
    builtin_conn,
    builtin_dim_le1,
    builtin_disjunctive,
    builtin_distributive,
    builtin_normality,
    constant_names,
    eval_formula,
    parse,
    print_formula,
)
from wallman_lab.homsearch import (
    find_L_morphism,
    find_lattice_embedding,
    surjection_from_morphism,
)
from wallman_lab.intervals import (
    disjunctive_witness,
    join,
    meet,
    normality_witness,
    refute_partition,
    riset,
)
from wallman_lab.lattice import (
    conn,
    is_disjunctive,
    is_distributive,
    is_normal,
    powerset_lattice,
    satisfies_HI,
    satisfies_dim_le1,
)
from wallman_lab.modelfinder import (
    ExhaustedNoModel,
    Model,
    SearchBudget,
    find_model,
    hi_preimage_theory,
    kappa_constants_theory,
)
from wallman_lab.spaces import all_spaces, chicane_condition, closed_set_lattice, discrete_space
from wallman_lab.wallman import is_boolean, self_representation_check, stone_space, wallman_space

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

WORKLOADS = ("model-search", "predicate-sweep", "map-search", "cli-queries")

# Input sizes of one pass.
SMALL_THEORY_ROUNDS = 3  # model-search: rounds of all 793 small theories
SIZE9_SAMPLE = 80  # predicate-sweep: of the 1078 size-9 lattices
INTERVAL_POOL = 2000  # predicate-sweep: pinned pool of interval inputs ...
INTERVAL_BATCH = 500  # ... of which a pass checks this many
# map-search: X -> discrete Y pairs per |Y| in 1..4.  The 4-point Y pairs are
# the slow ones (a loop over 2^16 subfamilies); with 25 of them they are over
# 1% of a run's queries, so the p99 tail falls among them, not among outliers.
PAIRS_PER_TARGET_SIZE = 25
SIZE8_TARGETS = 20  # map-search: embedding targets drawn from the 222 size-8 lattices
GAME_ROUNDS = 4
CLI_TIMEOUT_S = 60


@dataclass
class Query:
    key: str
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], list] = lambda answer: []
    view: Callable[[Any], Any] = lambda answer: answer
    in_process: bool = True  # False when the query runs in a process of its own


@dataclass
class Plan:
    queries: list
    sizes: tuple = ()  # lattice sizes whose enumeration counts are checked after the pass
    timers: dict = field(default_factory=dict)  # sub-timings that queries accumulate
    traces: list = field(default_factory=list)  # per-invocation trace files (traced cli-queries)


def input_rng(workload, seed):
    """Picks a run's inputs; the same in every pass of the run."""
    return random.Random(f"{workload}/{seed}")


def order_rng(workload, seed, pass_index):
    """Orders one pass's queries."""
    return random.Random(f"{workload}/{seed}/{pass_index}")


# ---------------------------------------------------------------- model-search

# Criterion-6 sentence options: ground sentences over constants a, b, then
# closed sentences.  A small theory is a set of option indices.
GROUND = (
    ("a ^ b = 0", ("a", "b")),
    ("a v b = 1", ("a", "b")),
    ("!(a = 0)", ("a",)),
    ("!(a = 1)", ("a",)),
    ("!(b = 0)", ("b",)),
    ("a <= b", ("a", "b")),
    ("!(a = b)", ("a", "b")),
)
CLOSED = (
    builtin_conn,
    builtin_distributive,
    builtin_disjunctive,
    lambda: parse("E x. (!(x = 0) & !(x = 1))"),
    lambda: parse("A x. (x = 0 | x = 1)"),
)
SMALL_MAX_SIZE = 4
KAPPA_MODEL = (10, {"a1": 5, "a2": 6, "b1": 8, "b2": 7})


def small_theory(picks):
    constants = tuple(sorted({c for i in picks if i < len(GROUND) for c in GROUND[i][1]}))
    sentences = tuple(
        bind_constants(parse(GROUND[i][0]), constants) if i < len(GROUND) else CLOSED[i - len(GROUND)]()
        for i in picks
    )
    return Theory(constants, sentences)


def small_theory_key(picks):
    return "theory:" + ",".join(map(str, sorted(set(picks))))


def small_theory_picks():
    """Every set of one to four distinct sentence options (793 theories)."""
    options = range(len(GROUND) + len(CLOSED))
    for k in range(1, 5):
        yield from itertools.combinations(options, k)


def small_theory_query(picks):
    theory = small_theory(picks)
    budget = SearchBudget(max_size=SMALL_MAX_SIZE, node_limit=1_000_000, time_limit=30)

    def check(result):
        lattices = {n: lattices_of_size(n) for n in range(2, SMALL_MAX_SIZE + 1)}
        least = checks.smallest_model_size(theory, lattices, SMALL_MAX_SIZE)
        if isinstance(result, Model):
            L = result.lattice
            if not all(checks.holds(L, s, result.interpretation) for s in theory.sentences):
                return ["model fails a sentence"]
            return [] if L.n == least else [f"model of size {L.n}, least is {least}"]
        if isinstance(result, ExhaustedNoModel):
            return [] if least is None else [f"no model reported, one of size {least} exists"]
        return [f"search ended with {result!r}"]

    return Query(small_theory_key(picks), "small-theory", lambda: find_model(theory, budget), check)


def kappa_theory(rng):
    """kappa(2) with its sentence list shuffled by the seed.

    The shuffle keeps the relative order of sentences that the model finder
    checks at the same constant, so each seed does the same search work.  A
    free shuffle moves the eval_formula count between 2.8 M and 4.7 M and the
    query time between 20 s and 37 s (seven orders tried on a 2-core x86-64
    VM under CPython 3.11), a spread across seeds wider than the
    benchmark's bounds.
    """
    theory = kappa_constants_theory(2)
    index = {c: i for i, c in enumerate(theory.constants)}
    stage = [max((index[c] + 1 for c in constant_names(s)), default=0) for s in theory.sentences]
    queues = {k: [s for s, sk in zip(theory.sentences, stage) if sk == k] for k in set(stage)}
    slots = list(stage)
    rng.shuffle(slots)
    return Theory(theory.constants, tuple(queues[k].pop(0) for k in slots))


def kappa_query(theory):
    budget = SearchBudget(max_size=10, node_limit=100_000_000, time_limit=150)

    def check(result):
        if not isinstance(result, Model):
            return [f"search ended with {result!r}"]
        L, v = result.lattice, result.interpretation
        out = []
        for i in (1, 2):
            if L.meet[v[f"a{i}"]][v[f"b{i}"]] != L.bottom:
                out.append(f"a{i} and b{i} are not disjoint")
        for pick in itertools.product((None, "a", "b"), repeat=2):
            names = [f"{side}{i}" for i, side in enumerate(pick, start=1) if side]
            acc = L.top
            for name in names:
                acc = L.meet[acc][v[name]]
            if names and acc == L.bottom:
                out.append(f"meet of {names} is zero")
        if (L.n, v) != KAPPA_MODEL:
            out.append(f"model {v} on {L.n} elements, expected {KAPPA_MODEL}")
        return out

    return Query("kappa2", "kappa", lambda: find_model(theory, budget), check)


def preimage_query():
    theory = hi_preimage_theory(closed_set_lattice(discrete_space(2)))
    budget = SearchBudget(max_size=9, node_limit=100_000_000, time_limit=150)
    check = lambda r: [] if r == ExhaustedNoModel(9) else [f"search ended with {r!r}"]
    return Query("preimage2", "preimage", lambda: find_model(theory, budget), check)


def not_dim_query():
    theory = Theory((), (Not(builtin_dim_le1()),))
    budget = SearchBudget(max_size=10, node_limit=100_000_000, time_limit=150)

    def check(result):
        if not isinstance(result, Model):
            return [f"search ended with {result!r}"]
        return [] if not satisfies_dim_le1(result.lattice)[0] else ["model satisfies dim<=1"]

    return Query("not-dim-le1", "not-dim", lambda: find_model(theory, budget), check)


def model_search(rng, order):
    """kappa(2), which pays the enumeration up to size 10 cold, and the
    other two searches, with SMALL_THEORY_ROUNDS rounds of every small
    theory around them, each round in its own seeded order.

    All 793 theories run in every round: a random sample of 400 spread the
    median query latency by 25% over five seeds.  A small theory takes well
    under a millisecond, and timing each once, in one stretch of a shared
    2-core VM, moved the median by a third between runs; so each runs in
    rounds before, between and after the long searches and its fastest run
    counts (see metrics.end_to_end)."""
    theories = [list(picks) for picks in small_theory_picks()]
    for picks in theories:
        rng.shuffle(picks)
    small = [small_theory_query(picks) for picks in theories]
    rounds = [order.sample(small, len(small)) for _ in range(SMALL_THEORY_ROUNDS)]
    searches = [kappa_query(kappa_theory(rng)), preimage_query(), not_dim_query()]
    queries = rounds[0] + searches[:1] + rounds[1] + searches[1:] + rounds[2]
    return Plan(queries, sizes=tuple(range(2, 11)))


def model_search_universe():
    yield kappa_query(kappa_constants_theory(2))
    yield preimage_query()
    yield not_dim_query()
    yield from (small_theory_query(picks) for picks in small_theory_picks())


# ---------------------------------------------------------------- predicate-sweep

PREDICATES = (
    ("distributive", is_distributive),
    ("disjunctive", is_disjunctive),
    ("normal", is_normal),
    ("connected", lambda L: conn(L, L.top)),
    ("hi", satisfies_HI),
    ("dim_le1", satisfies_dim_le1),
)


def lattice_query(key, L):
    def run():
        out = {name: fn(L) for name, fn in PREDICATES}
        if out["distributive"][0]:
            W = wallman_space(L)
            out["wallman"] = (W.points, W.base)
            if is_boolean(L):
                S = stone_space(L)
                out["stone"] = (S.points, S.base)
        return out

    def check(ans):
        problems = checks.predicate_witness_problems(L, ans)
        for rep in ("wallman", "stone"):
            if rep in ans:
                problems += checks.representation_problems(L, *ans[rep])
        if "stone" in ans and len(ans["stone"][0]) != len(checks.atoms_from_tables(L)):
            problems.append("Stone space point count differs from the atom count")
        return problems

    return Query(key, "lattice", run, check)


def space_query(key, X):
    def run():
        L = closed_set_lattice(X)
        return {
            "lattice": L,
            "chicane": chicane_condition(X),
            "hi": satisfies_HI(L),
            "self": self_representation_check(X),
        }

    def check(ans):
        fam = sorted(X.closed, key=lambda m: (bin(m).count("1"), m))
        problems = checks.closed_lattice_problems(fam, ans["lattice"])
        if ans["chicane"][0] != ans["hi"][0]:
            problems.append("space chicane condition and lattice HI disagree")
        return problems

    return Query(key, "space", run, check)


def builtin_sentences():
    return (
        (builtin_normality(), is_normal),
        (builtin_conn(), lambda L: conn(L, L.top)),
        (builtin_HI(), satisfies_HI),
        (builtin_dim_le1(), satisfies_dim_le1),
        (builtin_distributive(), is_distributive),
        (builtin_disjunctive(), is_disjunctive),
    )


def fol_query(key, L, builtins, timers):
    """The built-in sentences through eval_formula, then the direct
    procedures for the same properties; timers keep the two apart."""

    def run():
        start = time.perf_counter()
        by_formula = [eval_formula(L, sentence) for sentence, _ in builtins]
        mid = time.perf_counter()
        direct = [decide(L)[0] for _, decide in builtins]
        timers["fol_s"] = timers.get("fol_s", 0.0) + mid - start
        timers["direct_s"] = timers.get("direct_s", 0.0) + time.perf_counter() - mid
        return {"formula": by_formula, "direct": direct}

    check = lambda ans: [] if ans["formula"] == ans["direct"] else ["formula verdicts differ from direct ones"]
    return Query(key, "fol", run, check)


def _random_riset(rng):
    pairs = []
    for _ in range(rng.randint(0, 3)):
        a = Fraction(rng.randint(0, 24), 24)
        b = Fraction(rng.randint(0, 24), 24)
        pairs.append((min(a, b), max(a, b)))
    return riset(*pairs)


def interval_pool():
    """Fixed pool of (x, y, z, cut) inputs in the style of criterion 8."""
    rng = random.Random("interval-pool")
    return [
        (_random_riset(rng), _random_riset(rng), _random_riset(rng), Fraction(rng.randint(1, 23), 24))
        for _ in range(INTERVAL_POOL)
    ]


def interval_query(key, inputs):
    x, y, z, cut = inputs

    def run():
        laws = [
            meet(x, y) == meet(y, x),
            join(x, y) == join(y, x),
            meet(x, meet(y, z)) == meet(meet(x, y), z),
            join(x, join(y, z)) == join(join(x, y), z),
            meet(x, join(x, y)) == x,
            join(x, meet(x, y)) == x,
            meet(x, join(y, z)) == join(meet(x, y), meet(x, z)),
            join(x, meet(y, z)) == meet(join(x, y), join(x, z)),
        ]
        lo = meet(x, riset((0, cut - Fraction(1, 48))))
        hi = meet(y, riset((cut + Fraction(1, 48), 1)))
        return {
            "laws": laws,
            "meet": meet(x, y),
            "join": join(x, y),
            "pair": (lo, hi),
            "separation": normality_witness(lo, hi),
            "difference": disjunctive_witness(x, y) if meet(x, y) != x and not x.is_empty() else None,
            "refutation": refute_partition(lo, hi),
        }

    return Query(key, "interval", run, lambda ans: checks.interval_problems(inputs, ans))


def _sweep_inputs():
    lattices = {n: lattices_of_size(n) for n in range(2, 10)}
    spaces = [(n, i, X) for n in range(1, 5) for i, X in enumerate(all_spaces(n))]
    return lattices, spaces


def predicate_sweep(rng, order):
    lattices, spaces = _sweep_inputs()
    pool = interval_pool()
    plan = Plan([], sizes=tuple(range(2, 10)))
    picked = {n: range(len(lattices[n])) for n in range(2, 9)}
    picked[9] = sorted(rng.sample(range(len(lattices[9])), SIZE9_SAMPLE))
    for n, indices in picked.items():
        plan.queries += [lattice_query(f"lat:{n}:{i}", lattices[n][i]) for i in indices]
    plan.queries += [space_query(f"space:{n}:{i}", X) for n, i, X in spaces]
    builtins = builtin_sentences()
    for n in range(2, 7):
        plan.queries += [fol_query(f"fol:{n}:{i}", L, builtins, plan.timers) for i, L in enumerate(lattices[n])]
    for k in sorted(rng.sample(range(INTERVAL_POOL), INTERVAL_BATCH)):
        plan.queries.append(interval_query(f"iv:{k}", pool[k]))
    order.shuffle(plan.queries)  # each kind's latencies then span the whole pass
    return plan


def predicate_sweep_universe():
    lattices, spaces = _sweep_inputs()
    for n, Ls in lattices.items():
        yield from (lattice_query(f"lat:{n}:{i}", L) for i, L in enumerate(Ls))
    yield from (space_query(f"space:{n}:{i}", X) for n, i, X in spaces)
    builtins = builtin_sentences()
    for n in range(2, 7):
        yield from (fol_query(f"fol:{n}:{i}", L, builtins, {}) for i, L in enumerate(lattices[n]))
    yield from (interval_query(f"iv:{k}", inputs) for k, inputs in enumerate(interval_pool()))


# ---------------------------------------------------------------- map-search


def surjection_query(key, X, Y):
    """Y is discrete (T1): the point map induced by a morphism is defined
    only when Y is T1.  On non-T1 Y most morphisms found then fail with
    NonSingletonIntersection, a known defect this workload does not measure."""

    def run():
        morphism = find_L_morphism(Y, Y.closed_sorted(), X)
        if morphism is None:
            return {"morphism": None}
        f, verification = surjection_from_morphism(Y, morphism, X)
        return {"morphism": morphism, "map": f, "verification": verification}

    def check(ans):
        exists = checks.surjection_exists(X, Y)
        if (ans["morphism"] is not None) != exists:
            return [f"morphism found: {ans['morphism'] is not None}, surjection exists: {exists}"]
        if ans["morphism"] is not None:
            if not all(ans["verification"].values()):
                return [f"verification failed: {ans['verification']}"]
            if not checks.continuous_surjection(ans["map"], X, Y):
                return ["induced map is not a continuous surjection"]
        return []

    return Query(key, "surjection", run, check)


def embedding_query(key, B, L):
    check = lambda emb: [] if emb is None else checks.embedding_problems(B, L, emb)
    return Query(key, "embedding", lambda: find_lattice_embedding(B, L), check)


def game_query(key, A, B, same):
    def run():
        equivalent, strategy = ef_equivalent(A, B, GAME_ROUNDS)
        if equivalent:
            return equivalent, None, None
        sentence = strategy_to_sentence(A, B, strategy)
        return equivalent, sentence, print_formula(sentence)

    def check(ans):
        equivalent, sentence, _ = ans
        if equivalent:
            return []
        if same:
            return ["a lattice is separated from itself"]
        if not checks.holds(A, sentence, {}) or checks.holds(B, sentence, {}):
            return ["separating sentence does not separate"]
        return []

    return Query(key, "game", run, check, view=lambda ans: (ans[0], ans[2]))


def _map_inputs():
    spaces = [(n, i, X) for n in range(1, 5) for i, X in enumerate(all_spaces(n))]
    sources = [L for n in range(2, 8) for L in lattices_of_size(n)]
    targets = {"ba8": powerset_lattice(3), "ba16": powerset_lattice(4)}
    targets.update((f"l8:{i}", L) for i, L in enumerate(lattices_of_size(8)))
    return spaces, sources, targets, lattices_of_size(6)


def map_search(rng, order):
    spaces, sources, targets, six = _map_inputs()
    plan = Plan([], sizes=tuple(range(2, 9)))
    for ny in range(1, 5):
        for _ in range(PAIRS_PER_TARGET_SIZE):
            nx, ix, X = rng.choice(spaces)
            plan.queries.append(surjection_query(f"surj:{nx}:{ix}:{ny}", X, discrete_space(ny)))
    picked = ["ba8", "ba16"] + [f"l8:{i}" for i in sorted(rng.sample(range(222), SIZE8_TARGETS))]
    for t in picked:
        plan.queries += [embedding_query(f"emb:{t}:{j}", B, targets[t]) for j, B in enumerate(sources)]
    for i, j in itertools.combinations_with_replacement(range(len(six)), 2):
        a, b = (i, j) if rng.random() < 0.5 else (j, i)
        plan.queries.append(game_query(f"ef:{a}:{b}", six[a], six[b], a == b))
    order.shuffle(plan.queries)  # each kind's latencies then span the whole pass
    return plan


def map_search_universe():
    spaces, sources, targets, six = _map_inputs()
    for nx, ix, X in spaces:
        for ny in range(1, 5):
            yield surjection_query(f"surj:{nx}:{ix}:{ny}", X, discrete_space(ny))
    for t, L in targets.items():
        yield from (embedding_query(f"emb:{t}:{j}", B, L) for j, B in enumerate(sources))
    for a, b in itertools.product(range(len(six)), repeat=2):
        yield game_query(f"ef:{a}:{b}", six[a], six[b], a == b)


# ---------------------------------------------------------------- cli-queries


def _boolean_tables(k):
    n = 1 << k
    names = ["{" + ",".join(str(i) for i in range(k) if m >> i & 1) + "}" for m in range(n)]
    meet_t = [[a & b for b in range(n)] for a in range(n)]
    join_t = [[a | b for b in range(n)] for a in range(n)]
    return {"elements": names, "meet": meet_t, "join": join_t, "bottom": 0, "top": n - 1}


def _discrete(n):
    return {"points": n, "closed": [[p for p in range(n) if m >> p & 1] for m in range(1 << n)]}


CLI_INPUTS = {
    "ba4.json": _boolean_tables(2),
    "ba16.json": _boolean_tables(4),
    "poset.json": {"poset": {"size": 4, "le": [[0, 2], [1, 2], [1, 3]]}},
    "d3.json": _discrete(3),
    "d4.json": _discrete(4),
    "theory.json": {
        "constants": ["a", "b"],
        "sentences": [
            "a ^ b = 0",
            "!(a = 0)",
            "!(b = 0)",
            "A x. A y. ((x ^ y = 0 & x v y = 1) -> (x = 0 | x = 1))",
        ],
    },
}

CLI_COMMANDS = (
    ("check", "ba16.json"),
    ("check", "ba4.json"),
    ("check", "poset.json"),
    ("wallman", "poset.json"),
    ("stone", "ba16.json"),
    ("eval", "ba16.json", "A x. E y. (x ^ y = 0 & x v y = 1)"),
    ("eval", "poset.json", "A x. A y. x ^ (x v y) = x"),
    ("ef", "ba4.json", "poset.json", "--rounds", "3"),
    ("find-model", "theory.json", "--max-size", "6"),
    ("surject", "d4.json", "d3.json"),
    ("surject", "d3.json", "d4.json"),
    ("embed", "ba4.json", "ba16.json"),
    ("embed", "poset.json", "ba16.json"),
)


def write_cli_inputs(work_dir):
    work_dir.mkdir(parents=True, exist_ok=True)
    for name, data in CLI_INPUTS.items():
        (work_dir / name).write_text(json.dumps(data))


def cli_query(args, work_dir, trace_file=None):
    """One CLI invocation in a fresh interpreter, as a user runs it; traced
    invocations go through cli_entry.py, which writes trace_file."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    if trace_file is None:
        argv = [sys.executable, "-m", "wallman_lab", *args]
    else:
        argv = [sys.executable, str(BENCH_DIR / "cli_entry.py"), str(trace_file), *args]

    def run():
        proc = subprocess.run(argv, cwd=work_dir, env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr

    def check(ans):
        code, stdout, stderr = ans
        if code != 0:
            return [f"exit {code}: {stderr.strip()[-200:]}"]
        try:
            json.loads(stdout)
        except ValueError as err:
            return [f"report is not JSON: {err}"]
        return []

    key = "cli:" + " ".join(args)
    view = lambda ans: (ans[0], checks.mask_elapsed(ans[1]))
    return Query(key, "cli", run, check, view=view, in_process=False)


def cli_queries(order, work_dir, traced):
    write_cli_inputs(work_dir)
    commands = list(CLI_COMMANDS)
    order.shuffle(commands)
    plan = Plan([])
    for k, args in enumerate(commands):
        trace_file = work_dir / f"trace-{k}.json" if traced else None
        plan.queries.append(cli_query(args, work_dir, trace_file))
        if traced:
            plan.traces.append(trace_file)
    return plan


def cli_queries_universe(work_dir):
    write_cli_inputs(work_dir)
    yield from (cli_query(args, work_dir) for args in CLI_COMMANDS)


# ---------------------------------------------------------------- entry points


def build(workload, seed, pass_index, work_dir, traced=False):
    rng, order = input_rng(workload, seed), order_rng(workload, seed, pass_index)
    if workload == "model-search":
        return model_search(rng, order)
    if workload == "predicate-sweep":
        return predicate_sweep(rng, order)
    if workload == "map-search":
        return map_search(rng, order)
    if workload == "cli-queries":
        return cli_queries(order, work_dir, traced)
    raise ValueError(f"unknown workload {workload!r}")


def universe(workload, work_dir):
    if workload == "model-search":
        return model_search_universe()
    if workload == "predicate-sweep":
        return predicate_sweep_universe()
    if workload == "map-search":
        return map_search_universe()
    if workload == "cli-queries":
        return cli_queries_universe(work_dir)
    raise ValueError(f"unknown workload {workload!r}")
