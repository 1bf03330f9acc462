"""Bounded finite model finder for lattice-signature theories.

Candidate lattices come from the isomorph-free enumeration (one per
isomorphism class, deterministic order), sizes from STREAM_FROM_SIZE on
built only as far as the search reads them.  Constants are interpreted in
order on the shared backtracking core, `lattice._first_assignment`.  Each
sentence is planned from its compiled form, made once per constant list in
the cache that `eval_formula` reads too (`fol._compiled`).  A ground literal
on its newest constant c of a few shapes (c = 0, x ^ c = 0, x v c = 1,
c = x, c <= x, c = x ^ y, their negations; see `fol._literal_filter`)
becomes a bitmask filter on the domain of c, as in SEM and Mace4; every
other sentence is checked as soon as the constants it mentions are
assigned.  A closed sentence is decided at most once per lattice
(`_closed_plan`), a builtin one by its direct decider in `lattice`, and the
other tests are bound to a lattice only once every closed sentence holds
there.

A constant with no tests of its own, whose next constant's filters read it
in at most one row filter and otherwise only earlier constants, gets a
support at each prefix (`_support_plan`): the values that leave the next
constant a value.  It is the union, over the values y that the next
constant's other filters allow, of the row at y of the filter's table
transposed; perp and cotop are symmetric, down and up each other's
transpose, and a negated filter's transpose is the complement.  The core
tries only the supported values.

Each lattice and each value at a reached prefix is one budget node, masked
out, unsupported or not (the core charges them, `tracker.tick` in hand), so
neither the filters, the supports nor the verdicts change the node count,
the first model or where a search runs out of nodes.  Some are charged in
bulk, unvisited: a value outside the support as the walk it would have
been, its gap plus the lattice size, before the next value tried or at the
end of the walk and never past a success; and a run of the lattices of a
size that a stored verdict refuses, in one tick of its length.  Outcomes
are values.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache

from .enumeration import iter_lattices_at, lattices_of_size
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
    _Filter,
    _compiled,
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


def _plan(sentence, consts):
    """(depth, plan) of a sentence against the constants: the _Filter the
    sentence is, or (cost, width, test), the cost being its quantifier count
    (one slot each after the constants').  The test is bind of the compiled
    sentence, or for a closed one (depth 0; a builtin is known to be one)
    the (verdicts, decide) of `_closed_plan`."""
    if sentence in _deciders():
        return _closed_plan(sentence)
    compiled = _compiled(sentence, consts)
    if not compiled.depth:
        return _closed_plan(sentence)
    test = compiled.width - len(consts), compiled.width, compiled.bind
    return compiled.depth, compiled.filter or test


@lru_cache(maxsize=256)
def _closed_plan(sentence):
    """The plan of a closed sentence, made once whatever the constants and
    kept apart from `fol._compiled`, whose entries the many sentences of a
    large theory's diagram push out.  Its test is (verdicts, decide):
    decide(L) is the sentence's truth in L, and verdicts, shared by every
    search that runs it, maps each size n to (decided, holds), bitmasks over
    the positions of `iter_lattices(n)`.  A pair is replaced whole, never
    updated in place."""
    compiled = _compiled(sentence, ())
    decide = _deciders().get(sentence) or (lambda L: compiled.bind(L)([0] * compiled.width))
    return 0, (compiled.width, compiled.width, ({}, decide))


def _schedule(theory):
    """Each sentence planned once, with the constants in slots 0..k-1.

    Returns the constants; for each constant the filters on its domain; the
    closed sentences as (verdicts, decide) and, for each constant, the
    compiled tests that become checkable once it is assigned, each list
    cheapest first; the slot-list width the tests need; and for each
    constant its `_support_plan`, or False when no constant has one.
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
    supports = [_support_plan(i, filters, stages) for i in range(len(consts))]
    return consts, filters, closed, stages, width, any(supports) and supports


# the table whose row at y holds the x whose row holds y
_TRANSPOSE = {"perp": "perp", "cotop": "cotop", "down": "up", "up": "down"}


def _support_plan(i, filters, stages):
    """(others, row) when the values of constant i that leave constant
    i + 1 a value can be found from the constants before i, else None.

    Constant i must have no tests, so that each of its values walks
    constant i + 1.  Of the filters of constant i + 1, at most one may read
    i, and only as a row filter: row is its (table, holds) transposed, or
    None.  The others must read some constant before i; else the support
    is one mask per lattice, which spares a walk or two at most.  A value
    v of i leaves i + 1 the values y that pass others with v in the
    transposed row at y.
    """
    if not 0 < i < len(filters) - 1 or stages[i]:
        return None
    others = [f for f in filters[i + 1] if i not in (f.x, f.y)]
    on_i = [f for f in filters[i + 1] if i in (f.x, f.y)]
    if len(on_i) > 1 or on_i and on_i[0].y is not None or all(f.x is None for f in others):
        return None
    return others, (_TRANSPOSE[on_i[0].table], on_i[0].holds) if on_i else None


def _rows(L, table, holds):
    """(rows, flip): a filter table's rows on L (`lattice._masks`) and the mask to XOR them with, -1 if not holds."""
    return _masks(L)[("perp", "cotop", "down", "up").index(table)], 0 if holds else -1


def _domain(L, filters):
    """The values of one constant that pass its filters, as a mask when no
    filter reads another constant, else as domain(values, state), the mask
    at the values of the constants before it."""
    base = (1 << L.n) - 1
    rows, fixed = [], []
    for f in filters:
        if f.x is None:
            bit = 1 << getattr(L, f.table)
            base &= bit if f.holds else ~bit
        elif f.y is None:
            rows.append((*_rows(L, f.table, f.holds), f.x))
        else:
            fixed.append((getattr(L, f.table), f.x, f.y, f.holds))
    if not rows and not fixed:
        return base

    def domain(values, state):
        mask = base
        for row, flip, x in rows:
            mask &= row[values[x]] ^ flip
        for T, x, y, holds in fixed:
            bit = 1 << T[values[x]][values[y]]
            mask &= bit if holds else ~bit
        return mask

    return domain


def _support(L, plan):
    """support(values, state), the values of a constant that leave the next
    one a value, from its `_support_plan`, or None.  It is the union, over
    the values y that the next constant's other filters allow, of the
    transposed row at y; with no row filter on the constant, every value or
    none."""
    if plan is None:
        return None
    others, row = plan
    allowed = _domain(L, others)  # a mask function, as others read a constant
    full = (1 << L.n) - 1
    if row is None:
        return lambda values, state: full if allowed(values, state) else 0
    rows, flip = _rows(L, *row)

    def support(values, state):
        mask, out = allowed(values, state), 0
        while mask:
            low = mask & -mask
            out |= rows[low.bit_length() - 1] ^ flip
            mask ^= low
        return out & full

    return support


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
    consts, filters, closed, stages, width, supports = schedule
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
    domains = [_domain(L, fs) for fs in filters]
    live = supports and [_support(L, plan) for plan in supports]
    found = _first_assignment(domains, _step, (tests, slots), (tracker.tick, n), live)
    return None if found is None else dict(zip(consts, slots))


def find_model(theory, budget=SearchBudget()):
    """First model in canonical order within the budget, or a non-model
    outcome; every returned model re-verifies against all sentences.
    Raises PreconditionViolated when the theory repeats a constant."""
    schedule = _schedule(theory)
    tracker = _Budget(budget)
    try:
        for n in range(2, budget.max_size + 1):
            dead = 0  # the positions that a stored verdict refuses
            for verdicts, _ in schedule[2]:
                decided, holds = verdicts.get(n, (0, 0))
                dead |= decided & ~holds
            if n < STREAM_FROM_SIZE:
                lattices_of_size(n)  # built whole
            last = -1
            for position, L in iter_lattices_at(n, ~dead):
                tracker.tick(position - last)
                last = position
                interp = _satisfying_interpretation(L, position, schedule, tracker)
                if interp is not None:
                    if not all(eval_formula(L, s, interp) for s in theory.sentences):
                        raise PostconditionFailed(f"model {interp} on {L.n} elements fails a sentence")
                    return Model(L, interp)
            if dead >> last + 1:
                tracker.tick(dead.bit_length() - 1 - last)
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
        f, verification = surjection_from_embedding(base_sets, phi, W, X)
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
