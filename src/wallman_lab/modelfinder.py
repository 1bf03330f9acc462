"""Bounded finite model finder for lattice-signature theories.

Candidate lattices come from the isomorph-free enumeration (one per
isomorphism class, deterministic order), sizes from STREAM_FROM_SIZE on
built only as far as the search reads them.  Constants are interpreted on
the shared backtracking core, `lattice._first_assignment`, one budget node
each, and every sentence, compiled once, is checked as soon as the
constants it mentions are assigned.  Outcomes are values, never exceptions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .enumeration import all_labeled_lattices, iter_lattices, lattices_of_size
from .errors import NotDistributive, PostconditionFailed, PreconditionViolated
from .fol import (
    BOT,
    Const,
    Eq,
    Meet,
    Not,
    Theory,
    builtin_HI,
    builtin_conn,
    builtin_dim_le1,
    builtin_disjunctive,
    builtin_distributive,
    builtin_normality,
    compile_sentence,
    diagram,
    eval_formula,
)
from .lattice import _first_assignment
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

    def tick(self):
        self.nodes_left -= 1
        if self.nodes_left <= 0:
            raise _OutOfBudget("node limit reached")
        if self.nodes_left % 4096 == 0 and time.monotonic() > self.deadline:
            raise _OutOfBudget("time limit reached")


class _OutOfBudget(Exception):
    pass


def _schedule(theory):
    """Each sentence compiled once, with the constants in slots 0..k-1.

    Returns the constants, for each constant-prefix depth the compiled
    sentences that become checkable there, cheapest (fewest quantifiers,
    one slot each after the constants') first, and the slot-list width
    they need.
    """
    consts = list(theory.constants)
    stages = [[] for _ in range(len(consts) + 1)]
    width = len(consts)
    for pos, s in enumerate(theory.sentences):
        compiled = compile_sentence(s, consts)
        stages[compiled.depth].append((compiled.width - len(consts), pos, compiled.bind))
        width = max(width, compiled.width)
    return consts, [[bind for _, _, bind in sorted(stage)] for stage in stages], width


def _step(i, value, values, state):
    """Constant i takes value, one node of the budget; the sentences whose
    last constant is i are checked."""
    tests, slots, tracker = state
    tracker.tick()
    slots[i] = value
    for test in tests[i + 1]:
        if not test(slots):
            return None
    return state


def _satisfying_interpretation(L, schedule, tracker):
    consts, stages, width = schedule
    tests = [[bind(L) for bind in stage] for stage in stages]
    slots = [0] * width
    if not all(test(slots) for test in tests[0]):
        return None
    found = _first_assignment([range(L.n)] * len(consts), _step, (tests, slots, tracker))
    return None if found is None else dict(zip(consts, slots))


def find_model(theory, budget=SearchBudget()):
    """First model in canonical order within the budget, or a non-model
    outcome; every returned model re-verifies against all sentences."""
    schedule = _schedule(theory)
    tracker = _Budget(budget)
    try:
        for n in range(2, budget.max_size + 1):
            for L in iter_lattices(n) if n >= STREAM_FROM_SIZE else lattices_of_size(n):
                tracker.tick()
                interp = _satisfying_interpretation(L, schedule, tracker)
                if interp is not None:
                    if not all(eval_formula(L, s, interp) for s in theory.sentences):
                        raise PostconditionFailed(f"model {interp} on {L.n} elements fails a sentence")
                    return Model(L, interp)
    except _OutOfBudget as stop:
        return BudgetExceeded(str(stop))
    return ExhaustedNoModel(budget.max_size)


def find_model_naive(theory, max_size):
    """Oracle: brute force over every labeled lattice, duplicates included.

    Returns a bare satisfiability verdict; intended only for small sizes.
    """
    schedule = _schedule(theory)
    tracker = _Budget(SearchBudget(max_size=max_size, node_limit=10**9, time_limit=3600))
    for n in range(2, max_size + 1):
        for L in all_labeled_lattices(n):
            if _satisfying_interpretation(L, schedule, tracker) is not None:
                return True
    return False


# ---------------------------------------------------------------- theories


def kappa_constants_theory(t):
    """Two families of t constants: componentwise disjoint, yet every meet
    of a-constants and b-constants with disjoint index sets is nonzero."""
    if t < 1:
        raise ValueError("t must be at least 1")
    a = [Const(f"a{i}") for i in range(1, t + 1)]
    b = [Const(f"b{i}") for i in range(1, t + 1)]
    sentences = [Eq(Meet(a[i], b[i]), BOT) for i in range(t)]
    indices = list(range(t))
    for pr in range(3**t):
        p, q = [], []
        rest = pr
        for i in indices:
            rest, which = divmod(rest, 3)
            if which == 1:
                p.append(i)
            elif which == 2:
                q.append(i)
        if not p and not q:
            continue
        terms = [a[i] for i in p] + [b[j] for j in q]
        acc = terms[0]
        for term in terms[1:]:
            acc = Meet(acc, term)
        sentences.append(Not(Eq(acc, BOT)))
    return Theory(tuple(c.name for c in a + b), tuple(sentences))


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
    which B embeds (its full diagram, one constant per element)."""
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
