"""Reference model searches for the tests: the model finder as it was before
its domain filters, and a brute-force satisfiability oracle.

Both run every sentence as a compiled test and charge one budget node per
value tried, so they share no filter with `modelfinder.find_model`, which
must return exactly what `find_model_unfiltered` returns.  They compile with
the frozen closure makers of `oracles` and backtrack on its plain loop, so
they share no quantifier memo and no search code with the package either.
"""

import time

from wallman_lab.enumeration import iter_lattices, lattices_of_size
from wallman_lab.errors import PostconditionFailed
from wallman_lab.fol import eval_formula
from wallman_lab.modelfinder import (
    STREAM_FROM_SIZE,
    BudgetExceeded,
    ExhaustedNoModel,
    Model,
    SearchBudget,
)

from oracles import all_labeled_lattices, frozen_compile_sentence, plain_first_assignment


class OutOfBudget(Exception):
    pass


class Budget:
    def __init__(self, budget):
        self.nodes_left = budget.node_limit
        self.deadline = time.monotonic() + budget.time_limit

    def tick(self):
        self.nodes_left -= 1
        if self.nodes_left <= 0:
            raise OutOfBudget("node limit reached")
        if self.nodes_left % 4096 == 0 and time.monotonic() > self.deadline:
            raise OutOfBudget("time limit reached")


def schedule(theory):
    consts = list(theory.constants)
    stages = [[] for _ in range(len(consts) + 1)]
    width = len(consts)
    for pos, s in enumerate(theory.sentences):
        compiled = frozen_compile_sentence(s, consts)
        stages[compiled.depth].append((compiled.width - len(consts), pos, compiled.bind))
        width = max(width, compiled.width)
    return consts, [[bind for _, _, bind in sorted(stage)] for stage in stages], width


def step(i, value, values, state):
    tests, slots, tracker = state
    tracker.tick()
    slots[i] = value
    for test in tests[i + 1]:
        if not test(slots):
            return None
    return state


def satisfying_interpretation(L, plan, tracker):
    consts, stages, width = plan
    tests = [[bind(L) for bind in stage] for stage in stages]
    slots = [0] * width
    if not all(test(slots) for test in tests[0]):
        return None
    found = plain_first_assignment([range(L.n)] * len(consts), step, (tests, slots, tracker))
    return None if found is None else dict(zip(consts, slots))


def find_model_unfiltered(theory, budget=SearchBudget()):
    plan = schedule(theory)
    tracker = Budget(budget)
    try:
        for n in range(2, budget.max_size + 1):
            for L in iter_lattices(n) if n >= STREAM_FROM_SIZE else lattices_of_size(n):
                tracker.tick()
                interp = satisfying_interpretation(L, plan, tracker)
                if interp is not None:
                    if not all(eval_formula(L, s, interp) for s in theory.sentences):
                        raise PostconditionFailed(f"model {interp} on {L.n} elements fails a sentence")
                    return Model(L, interp)
    except OutOfBudget as stop:
        return BudgetExceeded(str(stop))
    return ExhaustedNoModel(budget.max_size)


def find_model_naive(theory, max_size):
    """Oracle: brute force over every labeled lattice, duplicates included.

    Returns a bare satisfiability verdict; intended only for small sizes.
    """
    plan = schedule(theory)
    tracker = Budget(SearchBudget(max_size=max_size, node_limit=10**9, time_limit=3600))
    for n in range(2, max_size + 1):
        for L in all_labeled_lattices(n):
            if satisfying_interpretation(L, plan, tracker) is not None:
                return True
    return False
