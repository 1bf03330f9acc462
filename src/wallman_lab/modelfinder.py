"""Bounded finite model finder for lattice-signature theories.

Candidate lattices come from the isomorph-free enumeration (one per
isomorphism class, deterministic order), sizes from STREAM_FROM_SIZE on
built only as far as the search reads them.  Constants are interpreted in
order on the shared backtracking core, `lattice._first_assignment`.  Each
sentence is planned once per constant list.  A ground literal on its newest
constant c of a few shapes (c = 0, x ^ c = 0, x v c = 1, c = x, c <= x,
c = x ^ y, their negations; see `_filter_table`) becomes a bitmask filter
on the domain of c, as in SEM and Mace4; every other sentence is compiled
and checked as soon as the constants it mentions are assigned.  A closed
sentence is decided at most once per lattice (`_closed_plan`), a builtin
one by its direct decider in `lattice`, and the other tests are bound to a
lattice only once every closed sentence holds there.  Each lattice and each
value tried at a reached prefix is one budget node, filtered or not, so
neither the filters nor the verdicts change the node count or the first
model.  Outcomes are values, never exceptions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

from .enumeration import iter_lattices, lattices_of_size
from .errors import NotDistributive, PostconditionFailed, PreconditionViolated
from .fol import (
    Theory,
    builtin_HI,
    builtin_conn,
    builtin_dim_le1,
    builtin_disjunctive,
    builtin_distributive,
    builtin_normality,
    bind_constants,
    diagram,
    eval_formula,
    parse,
    _maker,
    _normal_form,
)
from .lattice import (
    _first_assignment,
    _masks,
    conn,
    dim_le1_holds,
    is_disjunctive,
    is_distributive,
    is_normal,
    satisfies_HI,
)
from .spaces import closed_set_lattice
from .wallman import wallman_space


# The smallest size whose lattices are built only as far as the search reads
# them.  Smaller levels are read whole through `lattices_of_size`, whose
# per-size timings `bench/tracing.py` records; a whole one costs at most a
# quarter of a second (1,078 lattices of size 9), against over a second for
# size 10.
STREAM_FROM_SIZE = 10


@dataclass(frozen=True)
class SearchBudget:
    max_size: int = 8
    node_limit: int = 10_000_000
    time_limit: float = 300.0

    def __post_init__(self):
        if self.max_size < 2 or self.node_limit <= 0 or self.time_limit <= 0:
            raise ValueError("budget fields must be positive (max_size >= 2)")


@dataclass(frozen=True)
class Model:
    lattice: object
    interpretation: dict = field(hash=False)


@dataclass(frozen=True)
class ExhaustedNoModel:
    max_size: int


@dataclass(frozen=True)
class BudgetExceeded:
    reason: str


class _Budget:
    def __init__(self, budget):
        self.nodes_left = budget.node_limit
        self.deadline = time.monotonic() + budget.time_limit
        self.checkpoint = (budget.node_limit - 1) & -4096

    def tick(self, k=1):
        """Charge k nodes.  As if they were charged one by one, the deadline
        is checked whenever nodes_left reaches a multiple of 4096:
        checkpoint is the next multiple below it."""
        left = self.nodes_left = self.nodes_left - k
        if left <= self.checkpoint:
            if left <= 0:
                raise _OutOfBudget("node limit reached")
            self.checkpoint = (left - 1) & -4096
            if time.monotonic() > self.deadline:
                raise _OutOfBudget("time limit reached")


class _OutOfBudget(Exception):
    pass


class _Filter(NamedTuple):
    """A literal on the newest constant c as a filter on its domain, negated
    when not holds.  Table "bottom" or "top" (x and y None): c is that bound
    of L.  Table "perp", "cotop", "down" or "up" (y None): c is in the
    table's row at the value of constant x.  Table "meet" or "join": c is
    T[x][y] at the values of constants x and y."""

    table: str
    x: object
    y: object
    holds: bool


def _filter_table(a, b, c):
    """(table, x, y) when a = b is one of the filter shapes on slot c."""
    if a == c:
        if b in ("0", "1"):
            return ("bottom" if b == "0" else "top"), None, None
        return ("meet", b, b) if isinstance(b, int) else None  # c = x ^ x
    if not isinstance(a, tuple):
        return None
    op, p, q = a
    if not (isinstance(p, int) and isinstance(q, int)):
        return None
    if c not in (p, q):
        return (op, p, q) if b == c else None  # c = x ^ y or c = x v y
    x = q if p == c else p
    if x == c:
        return None
    shapes = {("meet", "0"): "perp", ("join", "1"): "cotop", ("meet", c): "down", ("meet", x): "up"}
    table = shapes.get((op, b))
    return None if table is None else (table, x, None)


@lru_cache(maxsize=1)
def _deciders():
    """decide(L) for each builtin sentence that `lattice` decides directly:
    1.5 to 60 times faster than the compiled sentence on the lattices of
    sizes 7 to 9."""
    return {
        builtin_distributive(): lambda L: is_distributive(L)[0],
        builtin_disjunctive(): lambda L: is_disjunctive(L)[0],
        builtin_normality(): lambda L: is_normal(L)[0],
        builtin_conn(): lambda L: conn(L, L.top)[0],
        builtin_HI(): lambda L: satisfies_HI(L)[0],
        builtin_dim_le1(): dim_le1_holds,
    }


# Room for the plans of several large theories: the diagram of a 16-element
# lattice alone has 640 sentences, and the preimage theories of all spaces on
# 4 points have 2,663 distinct (sentence, constants) pairs.
@lru_cache(maxsize=4096)
def _plan(sentence, consts):
    """(depth, plan) of a sentence against the constants: the _Filter the
    sentence is, or (cost, width, test), the cost being its quantifier count
    (one slot each after the constants').  The test is bind of the compiled
    sentence, or for a closed one (depth 0) the (verdicts, decide) of
    `_closed_plan`; a builtin is known to be closed and skips the normal
    form here."""
    if sentence in _deciders():
        return _closed_plan(sentence)
    normal, depth, width = _normal_form(sentence, consts)
    if not depth:
        return _closed_plan(sentence)
    if not isinstance(normal, bool) and normal.kind in ("eq", "ne"):
        for a, b in (normal.args, normal.args[::-1]):
            table = _filter_table(a, b, depth - 1)
            if table is not None:
                return depth, _Filter(*table, normal.kind == "eq")
    return depth, (width - len(consts), width, _maker(normal))


@lru_cache(maxsize=256)
def _closed_plan(sentence):
    """The plan of a closed sentence, made once whatever the constants and
    kept apart from `_plan`, whose entries the many sentences of a large
    theory's diagram push out.  Its test is (verdicts, decide): decide(L) is
    the sentence's truth in L, and verdicts, shared by every search that
    runs it, maps each size n to (decided, holds), bitmasks over the
    positions of `iter_lattices(n)`.  A pair is replaced whole, never
    updated in place, so two threads can at worst decide a lattice twice."""
    normal, _, width = _normal_form(sentence, ())
    bind = _maker(normal)
    decide = _deciders().get(sentence) or (lambda L: bind(L)([0] * width))
    return 0, (width, width, ({}, decide))


def _schedule(theory):
    """Each sentence planned once, with the constants in slots 0..k-1.

    Returns the constants; for each constant the filters on its domain; the
    closed sentences as (verdicts, decide) and, for each constant, the
    compiled tests that become checkable once it is assigned, each list
    cheapest first; and the slot-list width the tests need.
    """
    consts = tuple(theory.constants)
    repeated = next((name for i, name in enumerate(consts) if name in consts[:i]), None)
    if repeated is not None:
        raise PreconditionViolated(f"constants repeats the name {repeated!r}")
    filters = [[] for _ in consts]
    stages = [[] for _ in range(len(consts) + 1)]
    width = len(consts)
    for pos, s in enumerate(theory.sentences):
        depth, plan = _plan(s, consts)
        if isinstance(plan, _Filter):
            filters[depth - 1].append(plan)
        else:
            cost, sentence_width, test = plan
            stages[depth].append((cost, pos, test))
            width = max(width, sentence_width)
    closed, *stages = [[test for _, _, test in sorted(stage)] for stage in stages]
    return consts, filters, closed, stages, width


def _rows(L, table, holds, cache):
    """The rows of a filter table on L, complemented when not holds."""
    key = table, holds
    if key not in cache:
        if not holds:
            full = (1 << L.n) - 1
            cache[key] = [full ^ row for row in _rows(L, table, True, cache)]
        elif table in ("perp", "cotop"):
            cache["perp", True], cache["cotop", True] = _masks(L)
        else:  # down[x]: the v with meet[x][v] == v; up[x]: those with meet[x][v] == x
            cache[key] = [
                sum(1 << v for v, m in enumerate(row) if m == (v if table == "down" else x))
                for x, row in enumerate(L.meet)
            ]
    return cache[key]


def _domain(L, filters, cache, tracker):
    """domain(values, state): the values of one constant that pass its
    filters at the values of the constants before it, in index order.

    Every value 0..n-1 is one budget node, filtered or not: a survivor is
    charged with the filtered values before it, and an exhausted domain with
    those after its last survivor.
    """
    n, tick = L.n, tracker.tick
    base = (1 << n) - 1
    rows, fixed = [], []
    for f in filters:
        if f.x is None:
            bit = 1 << getattr(L, f.table)
            base &= bit if f.holds else ~bit
        elif f.y is None:
            rows.append((_rows(L, f.table, f.holds, cache), f.x))
        else:
            fixed.append((getattr(L, f.table), f.x, f.y, f.holds))

    def domain(values, state):
        mask = base
        for row, x in rows:
            mask &= row[values[x]]
        for T, x, y, holds in fixed:
            bit = 1 << T[values[x]][values[y]]
            mask &= bit if holds else ~bit
        last = -1
        while mask:
            low = mask & -mask
            value = low.bit_length() - 1
            tick(value - last)
            yield value
            last = value
            mask ^= low
        if last < n - 1:
            tick(n - 1 - last)

    return domain


def _step(i, value, values, state):
    """Constant i takes value; the tests whose last constant is i are run."""
    tests, slots = state
    slots[i] = value
    for test in tests[i]:
        if not test(slots):
            return None
    return state


def _satisfying_interpretation(L, position, schedule, tracker):
    """The first interpretation of the constants in L, the lattice at
    `position` of its size, or None.  Each closed sentence is decided once
    per lattice; the other tests are bound only once all of them hold."""
    consts, filters, closed, stages, width = schedule
    n, bit = L.n, 1 << position
    for verdicts, decide in closed:
        decided, holds = verdicts.get(n, (0, 0))
        if not decided & bit:
            decided |= bit
            holds |= bit if decide(L) else 0
            verdicts[n] = decided, holds
        if not holds & bit:
            return None
    tests = [[bind(L) for bind in stage] for stage in stages]
    slots = [0] * width
    cache = {}
    domains = [_domain(L, fs, cache, tracker) for fs in filters]
    found = _first_assignment(domains, _step, (tests, slots))
    return None if found is None else dict(zip(consts, slots))


def find_model(theory, budget=SearchBudget()):
    """First model in canonical order within the budget, or a non-model
    outcome; every returned model re-verifies against all sentences.
    Raises PreconditionViolated when the theory repeats a constant."""
    schedule = _schedule(theory)
    tracker = _Budget(budget)
    try:
        for n in range(2, budget.max_size + 1):
            lattices = iter_lattices(n) if n >= STREAM_FROM_SIZE else lattices_of_size(n)
            for position, L in enumerate(lattices):
                tracker.tick()
                interp = _satisfying_interpretation(L, position, schedule, tracker)
                if interp is not None:
                    if not all(eval_formula(L, s, interp) for s in theory.sentences):
                        raise PostconditionFailed(f"model {interp} on {L.n} elements fails a sentence")
                    return Model(L, interp)
    except _OutOfBudget as stop:
        return BudgetExceeded(str(stop))
    return ExhaustedNoModel(budget.max_size)


# ---------------------------------------------------------------- theories


@lru_cache(maxsize=None)
def kappa_constants_theory(t):
    """Two families of t constants: componentwise disjoint, yet every meet
    of a-constants and b-constants with disjoint index sets is nonzero.

    After the t disjointness sentences comes one per nonzero pick in
    1..3^t - 1, whose base-3 digits, least significant first, take a_i (1),
    b_i (2) or neither (0), the a-constants first.  Parsed once per t."""
    if t < 1:
        raise ValueError("t must be at least 1")
    texts = [f"a{i} ^ b{i} = 0" for i in range(1, t + 1)]
    for pick in range(1, 3**t):
        digits = [pick // 3**i % 3 for i in range(t)]
        terms = [f"{side}{i + 1}" for d, side in ((1, "a"), (2, "b")) for i in range(t) if digits[i] == d]
        texts.append(f"!({' ^ '.join(terms)} = 0)")
    names = [f"{c}{i}" for c in "ab" for i in range(1, t + 1)]
    return Theory(tuple(names), tuple(bind_constants(parse(s), names) for s in texts))


def _element_constant_names(B):
    """One constant per element: the lattice's own names when they are
    usable identifiers, else c0..c{n-1} by index."""
    names = B.names
    ok = all(n.isidentifier() for n in names) and len(set(names)) == B.n
    if ok:
        return list(names)
    return [f"c{i}" for i in range(B.n)]


def hi_preimage_theory(B):
    """The finite-scale preimage theory: a distributive disjunctive normal
    connected lattice satisfying the chicane and dimension formulas, into
    which B embeds (its full diagram, one constant per element).

    Its only finite model is the 2-element lattice, so it has one only when
    B has 2 elements.  A finite distributive disjunctive lattice is Boolean:
    were some join-irreducible j not an atom, its unique lower cover j'
    would be nonzero, and disjunctivity (j is not <= j') would give a
    nonzero c <= j with c ^ j' = 0; every element below j other than j is
    <= j', so c = j, but j ^ j' = j' is not 0.  So every join-irreducible
    is an atom, and by Birkhoff's representation the lattice is 2^k.  For
    k >= 2 an atom and its complement are disjoint, nonzero and join to the
    top, so conn(top) fails.
    """
    names = _element_constant_names(B)
    diag = diagram(B, {nm: el for el, nm in enumerate(names)})
    sentences = (
        builtin_distributive(),
        builtin_disjunctive(),
        builtin_normality(),
        builtin_conn(),
        builtin_HI(),
        builtin_dim_le1(),
    ) + diag.sentences
    return Theory(diag.constants, sentences)


def build_preimage(X, budget=SearchBudget(), theory=None):
    """Model-theoretic preimage pipeline for a finite space, stage by stage.

    Stages: build the theory extending the diagram of the closed-set lattice
    of X, find a bounded model, take its ultrafilter space, then map that
    space onto X through the embedded copy of the closed-set lattice.  The
    report records each stage's outcome.
    """
    from .homsearch import surjection_from_embedding

    B = closed_set_lattice(X)
    if theory is None:
        theory = hi_preimage_theory(B)
    report = {"theory": {"constants": len(theory.constants), "sentences": len(theory.sentences)}}
    result = find_model(theory, budget)
    report["model"] = result
    if not isinstance(result, Model):
        return report
    names = _element_constant_names(B)
    try:
        W = wallman_space(result.lattice)
        report["wallman"] = {"points": len(W.points)}
    except NotDistributive as err:
        report["wallman"] = {"error": str(err)}
        return report
    base_sets = X.closed_sorted()
    phi = {i: result.interpretation[names[i]] for i in range(B.n)}
    try:
        f, verification = surjection_from_embedding(base_sets, phi, result.lattice, X)
        report["surjection"] = {"map": f, **verification}
    except Exception as err:  # diagnostic stage, never a crash
        report["surjection"] = {"error": f"{type(err).__name__}: {err}"}
    return report


def check_finite_subset_consistency(theory, parts, budget=SearchBudget()):
    """find_model on each listed subset of the theory's sentences."""
    out = []
    sentence_set = set(theory.sentences)
    for part in parts:
        part = tuple(part)
        if not all(s in sentence_set for s in part):
            raise PreconditionViolated("a part holds a sentence that is not in the theory")
        sub = Theory(theory.constants, part)
        out.append(find_model(sub, budget))
    return out
