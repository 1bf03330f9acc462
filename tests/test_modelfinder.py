import importlib.util
import itertools
import random
import subprocess
import sys
from pathlib import Path

import pytest

from wallman_lab import enumeration, fol, modelfinder
from wallman_lab.enumeration import lattices_of_size
from wallman_lab.errors import PreconditionViolated
from wallman_lab.fol import (
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
    bind_constants,
    compile_sentence,
    constant_names,
    eval_formula,
    free_variables,
    parse,
)
from wallman_lab.lattice import (
    _first_assignment,
    chain,
    conn,
    is_disjunctive,
    is_distributive,
    is_normal,
    powerset_lattice,
    satisfies_HI,
)
from wallman_lab.modelfinder import (
    _Budget,
    _closed_plan,
    _domain,
    _Filter,
    _plan,
    BudgetExceeded,
    ExhaustedNoModel,
    Model,
    SearchBudget,
    build_preimage,
    check_finite_subset_consistency,
    find_model,
    hi_preimage_theory,
    kappa_constants_theory,
)

from oracles import built_kappa_constants_theory
from unfiltered_search import find_model_naive, find_model_unfiltered


class TestBudget:
    def test_rejects_nonpositive_fields(self):
        with pytest.raises(ValueError):
            SearchBudget(max_size=1)
        with pytest.raises(ValueError):
            SearchBudget(node_limit=0)

    @pytest.mark.parametrize(
        "theory, max_size, nodes, outcome",
        [
            # Node counts as measured before sentences were compiled: how
            # sentences are evaluated must not change which nodes a search visits.
            (
                Theory(
                    ("a", "b"),
                    tuple(
                        bind_constants(parse(text), ("a", "b"))
                        for text in (
                            "!(a = 0)",
                            "!(b = 0)",
                            "a ^ b = 0",
                            "E x. (!(x = a) & !(x = b) & !(x = 0) & !(x = 1))",
                            "A x. (x ^ a = 0 -> x <= b)",
                        )
                    )
                    + (builtin_distributive(),),
                ),
                7,
                57,
                Model,
            ),
            (
                Theory(
                    ("a1", "a2", "b1", "b2"),
                    kappa_constants_theory(2).sentences + (Eq(Const("a1"), Const("b1")),),
                ),
                7,
                16520,
                ExhaustedNoModel,
            ),
            # most of these nodes are values that leave the next constant
            # none, skipped and charged in bulk
            (kappa_constants_theory(2), 7, 20866, ExhaustedNoModel),
            (kappa_constants_theory(2), 10, 2027773, (10, {"a1": 5, "a2": 6, "b1": 8, "b2": 7})),
        ],
    )
    def test_search_tree_size_is_pinned(self, theory, max_size, nodes, outcome):
        # a search of k nodes finishes with node_limit k + 1 and runs out at k;
        # outcome is the outcome's class, or the size and interpretation of the model
        enough = find_model(theory, SearchBudget(max_size=max_size, node_limit=nodes + 1))
        if isinstance(outcome, type):
            assert isinstance(enough, outcome)
        else:
            assert (enough.lattice.n, enough.interpretation) == outcome
        short = find_model(theory, SearchBudget(max_size=max_size, node_limit=nodes))
        assert short == BudgetExceeded("node limit reached")

    def test_node_limit_reported(self):
        theory = kappa_constants_theory(2)
        result = find_model(theory, SearchBudget(max_size=10, node_limit=50))
        assert isinstance(result, BudgetExceeded)

    def test_time_limit_reported(self):
        # kappa(2) charges most of its nodes in bulk, past filtered values
        theory = kappa_constants_theory(2)
        result = find_model(theory, SearchBudget(max_size=10, node_limit=10**9, time_limit=1e-3))
        assert result == BudgetExceeded("time limit reached")

    @pytest.mark.parametrize(
        "limit, charges, checks",
        [
            (10_000, [1] * 9000, 2),
            (10_000, [7, 4090, 1, 4096, 6, 800], 2),
            (10_000, [7, 8190, 3], 1),
            (10_000, [1807], 0),
            (10_000, [1808], 1),
            (8192, [1], 0),
            (8193, [1], 1),
        ],
    )
    def test_the_deadline_is_read_when_a_charge_passes_a_multiple_of_4096(self, limit, charges, checks):
        class Deadline:
            reads = 0

            def __lt__(self, now):
                self.reads += 1
                return False

        tracker = _Budget(SearchBudget(node_limit=limit))
        tracker.deadline = Deadline()
        for k in charges:
            tracker.tick(k)
        assert tracker.deadline.reads == checks
        assert tracker.nodes_left == limit - sum(charges)

    @pytest.mark.parametrize(
        "domains, ticks",
        [
            # 1: charge 2 (0, 1); under it 0: 1, 3: 3, then 2 (4, 5) after
            # the exhausted walk; 4: 3 (2..4); under it 0: 1 and 3: 3, which
            # succeeds, so nothing after it is charged at either level
            ([0b010010, 0b001001], [2, 1, 3, 2, 3, 1, 3]),
            # a callable domain is charged alike; an empty one charges all
            # six values, and the first walk, which ends at 5, nothing more
            ([0b100001, lambda values, state: 0], [1, 6, 5, 6]),
        ],
    )
    def test_the_core_charges_every_value_of_a_walked_domain_until_a_success(self, domains, ticks):
        seen = []

        def step(i, value, values, state):
            return None if i == 1 and values != [4, 3] else state

        found = _first_assignment(domains, step, 0, (seen.append, 6))
        assert found == ([4, 3] if domains[0] >> 4 & 1 else None)
        assert seen == ticks


    @pytest.mark.parametrize("accept", [[4, 4, 2], None], ids=["success", "exhausted"])
    def test_a_walk_past_dead_values_charges_what_the_plain_walk_does(self, accept):
        # over six values: variable 1 has no value after 2 or 5 at variable 0,
        # and variable 2 none after 1 or 3 at variable 1; live says so, as a
        # callable mask and as a mask
        dead = {(0, 2), (0, 5), (1, 1), (1, 3)}
        domains = [
            0b110111,
            lambda values, state: 0 if values[0] in (2, 5) else 0b011010 if values[0] in (1, 4) else 0b100101,
            lambda values, state: 0 if values[1] in (1, 3) else 0b000110,
        ]
        live = [lambda values, state: 0b011011, 0b110101, None]

        def walk(live):
            ticks, tried = [], []

            def step(i, value, values, state):
                tried.append((i, value, sum(ticks)))
                return None if i == 2 and values != accept else state

            found = _first_assignment(domains, step, 0, (ticks.append, 6), live)
            return found, tried, sum(ticks)

        found, tried, charged = walk(None)
        assert found == accept
        assert any((i, v) in dead for i, v, _ in tried)
        # each value it tries, at the same running charge, and the same charge at the end
        assert walk(live) == (found, [t for t in tried if t[:2] not in dead], charged)


class TestFindModel:
    def test_standard_formulas_have_degenerate_model(self):
        theory = Theory(
            (),
            (
                builtin_normality(),
                builtin_HI(),
                builtin_dim_le1(),
                builtin_distributive(),
                builtin_disjunctive(),
            ),
        )
        result = find_model(theory, SearchBudget(max_size=3))
        assert isinstance(result, Model) and result.lattice.n == 2

    def test_connected_disjunctive_nontrivial_exhausts(self):
        theory = Theory(
            (),
            (
                builtin_conn(),
                parse("E x. (!(x = 0) & !(x = 1))"),
                builtin_distributive(),
                builtin_disjunctive(),
            ),
        )
        result = find_model(theory, SearchBudget(max_size=6))
        assert result == ExhaustedNoModel(6)

    def test_negated_separation_finds_minimal_non_normal(self):
        theory = Theory((), (Not(builtin_normality()),))
        result = find_model(theory, SearchBudget(max_size=6))
        assert isinstance(result, Model)
        assert result.lattice.n == 5
        assert not is_normal(result.lattice)[0]

    def test_models_reverify_under_eval(self):
        sentences = tuple(
            bind_constants(parse(text), ("a",))
            for text in ("!(a = 0)", "!(a = 1)")
        ) + (builtin_distributive(),)
        theory = Theory(("a",), sentences)
        result = find_model(theory, SearchBudget(max_size=4))
        assert isinstance(result, Model)
        for s in theory.sentences:
            assert eval_formula(result.lattice, s, result.interpretation)

    def test_determinism(self):
        theory = kappa_constants_theory(1)
        a = find_model(theory, SearchBudget(max_size=6))
        b = find_model(theory, SearchBudget(max_size=6))
        assert a == b


def outcome(result):
    if isinstance(result, Model):
        return "model", result.lattice.meet, result.lattice.join, result.interpretation
    return result


# the sentence options of the benchmark's small theories: ground sentences
# over the constants a and b, then closed sentences
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
    builtin_conn(),
    builtin_distributive(),
    builtin_disjunctive(),
    parse("E x. (!(x = 0) & !(x = 1))"),
    parse("A x. (x = 0 | x = 1)"),
)


def small_theories():
    """Every theory of one to four distinct options (793 theories)."""
    for k in range(1, 5):
        for picks in itertools.combinations(range(len(GROUND) + len(CLOSED)), k):
            constants = tuple(sorted({c for i in picks if i < len(GROUND) for c in GROUND[i][1]}))
            yield Theory(
                constants,
                tuple(
                    bind_constants(parse(GROUND[i][0]), constants) if i < len(GROUND) else CLOSED[i - len(GROUND)]
                    for i in picks
                ),
            )


def preimage_theories():
    from wallman_lab.spaces import all_spaces, closed_set_lattice

    return [hi_preimage_theory(closed_set_lattice(X)) for n in range(1, 4) for X in all_spaces(n)]


def stage_shuffled(theory, seed):
    """The theory with its sentences shuffled, but those checked at the same
    constant kept in their order, as the benchmark shuffles kappa(2)."""
    index = {c: i for i, c in enumerate(theory.constants)}
    stage = [max((index[c] + 1 for c in constant_names(s)), default=0) for s in theory.sentences]
    queues = {k: [s for s, sk in zip(theory.sentences, stage) if sk == k] for k in set(stage)}
    slots = list(stage)
    random.Random(seed).shuffle(slots)
    return Theory(theory.constants, tuple(queues[k].pop(0) for k in slots))


def filter_only_theories():
    """(theory, nodes it charges to size 6): every sentence a filter, so
    most constants' values are walked past by their supports."""
    kappa2 = kappa_constants_theory(2)
    return [
        (kappa_constants_theory(1), 21),
        (stage_shuffled(kappa2, 5077), 3600),
        (Theory(kappa2.constants, kappa2.sentences + (Eq(Const("a1"), Const("b1")),)), 3006),
    ]


def compiles_in_fol(monkeypatch):
    """The list of the sentences that `fol` compiles from now on, in order."""
    normal_forms = []
    normal_form = fol._normal_form
    monkeypatch.setattr(fol, "_normal_form", lambda s, names: normal_forms.append(s) or normal_form(s, names))
    return normal_forms


def forget_verdicts():
    """Empty the verdict stores, and the plans that hold them."""
    _closed_plan.cache_clear()


class TestDomainFilters:
    """The filtered search against the unfiltered one it replaced: the same
    outcome, the same first model and the same node counts, whether the
    verdicts of the closed sentences are recorded afresh or read back."""

    @pytest.mark.parametrize("node_limit", [3, 17, 60, 10**6])
    @pytest.mark.parametrize("theories", [small_theories, preimage_theories], ids=["small", "preimage"])
    def test_filtered_search_returns_what_the_unfiltered_one_does(self, theories, node_limit):
        budget = SearchBudget(max_size=6, node_limit=node_limit)
        cases = list(theories())
        assert len(cases) in (793, 34)
        expected = [outcome(find_model_unfiltered(theory, budget)) for theory in cases]
        for theory, want in zip(cases, expected):
            forget_verdicts()
            assert outcome(find_model(theory, budget)) == want, theory
        # warm: each theory reads the verdicts the others recorded
        for theory, want in zip(cases, expected):
            assert outcome(find_model(theory, budget)) == want, theory

    @pytest.mark.parametrize("case", range(3), ids=["kappa1", "kappa2-shuffled", "kappa2-a1=b1"])
    def test_filter_only_theories_return_what_the_unfiltered_search_does(self, case):
        theory, nodes = filter_only_theories()[case]
        runs_out = BudgetExceeded("node limit reached")
        assert find_model_unfiltered(theory, SearchBudget(max_size=6, node_limit=nodes)) == runs_out
        assert find_model_unfiltered(theory, SearchBudget(max_size=6, node_limit=nodes + 1)) != runs_out
        for node_limit in [3, 17, 60, 10**6, *range(nodes - 2, nodes + 3)]:
            budget = SearchBudget(max_size=6, node_limit=node_limit)
            assert outcome(find_model(theory, budget)) == outcome(find_model_unfiltered(theory, budget)), node_limit

    def test_a_warm_search_runs_out_where_a_cold_one_does(self, monkeypatch):
        # a warm search charges each run of lattices that a stored verdict
        # refuses in one tick, without visiting them; a cold one visits all 83
        theory = preimage_theories()[2]

        def search(node_limit):
            return outcome(find_model(theory, SearchBudget(max_size=7, node_limit=node_limit)))

        cold = []
        for node_limit in range(1, 85):
            forget_verdicts()
            cold.append(search(node_limit))
        assert cold[-2:] == [BudgetExceeded("node limit reached"), ExhaustedNoModel(7)]
        ticks = []
        tick = _Budget.tick
        monkeypatch.setattr(_Budget, "tick", lambda self, k=1: ticks.append(k) or tick(self, k))
        assert search(10**6) == ExhaustedNoModel(7)
        assert len(ticks) < sum(ticks) == 83
        assert [search(node_limit) for node_limit in range(1, 85)] == cold

    def test_verdicts_hold_for_a_level_built_again(self, cold_levels, monkeypatch):
        budget = SearchBudget(max_size=6)
        cases = list(small_theories())
        forget_verdicts()
        expected = [outcome(find_model(theory, budget)) for theory in cases]
        first = lattices_of_size(6)
        monkeypatch.setattr(enumeration, "_LEVELS", {})
        assert [outcome(find_model(theory, budget)) for theory in cases] == expected
        assert lattices_of_size(6) is not first
        assert expected == [outcome(find_model_unfiltered(theory, budget)) for theory in cases]

    def test_a_verdict_is_the_truth_of_its_sentence_at_its_position(self):
        forget_verdicts()
        for theory in preimage_theories():
            find_model(theory, SearchBudget(max_size=7))
        builtins = (builtin_distributive, builtin_disjunctive, builtin_normality, builtin_conn, builtin_HI, builtin_dim_le1)
        sentences = [builtin() for builtin in builtins]
        # all but the indiscrete spaces exhaust size 7, so the cheapest sentence is decided everywhere
        for n in range(2, 8):
            assert (1 << len(lattices_of_size(n))) - 1 in (_closed_plan(s)[1][2][0].get(n, (0, 0))[0] for s in sentences)
        for sentence in sentences:
            for n, (decided, holds) in _closed_plan(sentence)[1][2][0].items():
                assert holds & ~decided == 0
                for position, L in enumerate(lattices_of_size(n)):
                    if decided >> position & 1:
                        assert holds >> position & 1 == eval_formula(L, sentence, {}), (sentence, n, position)

    # the compiled HI and dim<=1 sentences take seconds on the 222 lattices of size 8
    @pytest.mark.parametrize(
        "builtin, max_size",
        [
            (builtin_distributive, 8),
            (builtin_disjunctive, 8),
            (builtin_normality, 8),
            (builtin_conn, 8),
            (builtin_HI, 7),
            (builtin_dim_le1, 7),
        ],
    )
    def test_a_builtin_is_decided_directly_as_its_sentence_is(self, builtin, max_size):
        sentence = builtin()
        depth, (cost, width, (verdicts, decide)) = _plan(sentence, ("a",))
        assert depth == 0 and decide is modelfinder._deciders()[sentence]
        for n in range(2, max_size + 1):
            for L in lattices_of_size(n):
                assert decide(L) == eval_formula(L, sentence), (n, L.meet)

    def test_a_closed_sentence_is_planned_once_whatever_the_constants(self, monkeypatch):
        from wallman_lab.spaces import all_spaces, closed_set_lattice

        first, second = (hi_preimage_theory(closed_set_lattice(X)) for X in all_spaces(2)[:2])
        assert first.constants != second.constants
        closed = [s for s in second.sentences if not (constant_names(s) or free_variables(s))]
        assert len(closed) == 6 and all(s in first.sentences for s in closed)
        normal_forms = compiles_in_fol(monkeypatch)
        forget_verdicts()
        fol._compiled.cache_clear()  # so that every plan compiles afresh
        budget = SearchBudget(max_size=4)
        find_model(first, budget)
        assert set(closed) <= set(normal_forms)
        normal_forms.clear()
        find_model(second, budget)
        # the six builtins were planned for the first theory; only the diagram is new
        assert len(normal_forms) == len(second.sentences) - len(closed)
        assert not set(closed) & set(normal_forms)

    def test_a_large_theory_is_planned_once(self, monkeypatch):
        theory = hi_preimage_theory(powerset_lattice(4))
        assert len(theory.sentences) == 640  # more than twice the 256 plans the cache once held
        budget = SearchBudget(max_size=4)
        first = find_model(theory, budget)
        normal_forms = compiles_in_fol(monkeypatch)
        assert find_model(theory, budget) == first
        assert normal_forms == []

    def test_a_test_is_the_compiled_sentence_that_eval_formula_reads(self):
        names = ("a", "b")
        sentence = bind_constants(parse("A x. (x ^ a = 0 -> x <= b)"), names)
        forget_verdicts()
        depth, (cost, width, bind) = _plan(sentence, names)
        assert (depth, cost, width) == (2, 1, 3)
        assert bind is fol._compiled(sentence, names).bind

    @pytest.mark.parametrize("closed, binds", [("A x. x = 0", False), ("E x. x = 0", True)])
    def test_later_stages_are_bound_only_once_the_closed_stage_holds(self, monkeypatch, closed, binds):
        bound = []
        plan = modelfinder._plan

        def spy(sentence, consts):
            depth, p = plan(sentence, consts)
            if depth and not isinstance(p, _Filter):
                cost, width, bind = p
                p = cost, width, lambda L: bound.append(L) or bind(L)
            return depth, p

        monkeypatch.setattr(modelfinder, "_plan", spy)
        theory = Theory(("a",), (parse(closed), bind_constants(parse("A x. (x <= a & !(a = x))"), ("a",))))
        assert find_model(theory, SearchBudget(max_size=6)) == ExhaustedNoModel(6)
        assert bool(bound) == binds

    # (sentence over x, y, c with c newest, its table)
    KINDS = [
        ("c = 0", "bottom"),
        ("c = 1", "top"),
        ("0 = c", "bottom"),
        ("x ^ c = 0", "perp"),
        ("c ^ x = 0", "perp"),
        ("x v c = 1", "cotop"),
        ("c = x", "meet"),
        ("x = c", "meet"),
        ("c <= x", "down"),
        ("x <= c", "up"),
        ("x ^ y = c", "meet"),
        ("c = y ^ x", "meet"),
        ("x v y = c", "join"),
        ("x ^ x = c", "meet"),
    ]

    @pytest.mark.parametrize("negated", [False, True])
    @pytest.mark.parametrize("text, table", KINDS)
    def test_a_filter_keeps_exactly_the_values_its_literal_allows(self, text, table, negated):
        names = ("x", "y", "c")
        sentence = bind_constants(parse(f"!({text})" if negated else text), names)
        depth, plan = _plan(sentence, names)
        assert depth == 3 and plan.table == table and plan.holds == (not negated)
        test = compile_sentence(sentence, names).bind
        for n in range(2, 7):
            for L in lattices_of_size(n):
                holds = test(L)
                domain = _domain(L, [plan])
                for x, y in itertools.product(range(n), repeat=2):
                    mask = domain([x, y], None) if callable(domain) else domain
                    kept = [v for v in range(n) if mask >> v & 1]
                    assert kept == [v for v in range(n) if holds([x, y, v])], (text, L.meet, x, y)

    @pytest.mark.parametrize(
        "text",
        ["y ^ c = x", "x ^ c = y", "x ^ c = 1", "x v c = 0", "c ^ c = 0", "(x ^ y) ^ c = 0", "A z. z ^ c = 0"],
    )
    def test_other_shapes_stay_tests(self, text):
        names = ("x", "y", "c")
        depth, plan = _plan(bind_constants(parse(text), names), names)
        assert not isinstance(plan, _Filter)

    def test_repeated_constants_are_refused(self):
        theory = Theory(("a", "a"), tuple(bind_constants(parse(t), ("a",)) for t in ("!(a = 1)", "A x. x <= a")))
        with pytest.raises(PreconditionViolated, match="constants repeats the name 'a'"):
            find_model(theory, SearchBudget(max_size=3))


def nodes_visited(search, theory, max_size):
    """The nodes a search visits: one less than the least node limit that it
    finishes within."""
    def runs_out(limit):
        return search(theory, SearchBudget(max_size=max_size, node_limit=limit)) == BudgetExceeded("node limit reached")

    lo, hi = 1, 1
    while runs_out(hi):
        lo, hi = hi + 1, 2 * hi
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (mid + 1, hi) if runs_out(mid) else (lo, mid)
    return hi - 1


# a quantified sentence that leaves out a constant before its last one, so
# its test keeps a memo across the values of that constant
# over the constants a, b, c
OMITTING = [
    ("!(a = 0)", "!(b = 0)", "A x. (x ^ b = 0 -> x <= c)", "!(c = 1)"),
    ("!(a = 0)", "!(a = 1)", "A x. (x ^ b = 0 -> x <= c)", "!(b = c)", "!(b = 1)"),
    ("a ^ b = 0", "!(a = 0)", "E x. (!(x = 0) & x <= c & x ^ a = 0)", "!(c = 1)", "!(c = b)"),
    ("!(a = 0)", "!(b = 0)", "E x. (x ^ a = 0 & !(x = 0) & (A y. (y ^ x = 0 -> y <= c)))", "!(c = 1)"),
    ("!(b = 0)", "!(b = 1)", "A x. E y. (x ^ y = 0 & (x v y = c | x v y = 1))", "!(a = c)", "!(c = 1)"),
]


class TestQuantifierMemosInTheSearch:
    @pytest.mark.parametrize("texts", OMITTING, ids="; ".join)
    def test_the_same_model_and_node_count_as_the_unfiltered_search(self, texts):
        names = ("a", "b", "c")
        theory = Theory(names, tuple(bind_constants(parse(t), names) for t in texts))
        forget_verdicts()
        found = find_model(theory, SearchBudget(max_size=7))
        assert isinstance(found, Model)
        assert outcome(found) == outcome(find_model_unfiltered(theory, SearchBudget(max_size=7)))
        assert nodes_visited(find_model, theory, 7) == nodes_visited(find_model_unfiltered, theory, 7)


class TestNaiveOracleAgreement:
    def test_handpicked_theories(self):
        cases = [
            Theory((), (builtin_conn(),)),
            Theory((), (Not(builtin_normality()),)),
            Theory(("a",), (Not(Eq(Const("a"), BOT)),)),
            Theory(
                ("a", "b"),
                (
                    Eq(Meet(Const("a"), Const("b")), BOT),
                    Not(Eq(Const("a"), BOT)),
                    Not(Eq(Const("b"), BOT)),
                ),
            ),
        ]
        for theory in cases:
            canonical = find_model(theory, SearchBudget(max_size=4))
            assert isinstance(canonical, (Model, ExhaustedNoModel))
            assert isinstance(canonical, Model) == find_model_naive(theory, 4)


class TestKappaConstants:
    def test_t1_sentences(self):
        theory = kappa_constants_theory(1)
        assert theory.constants == ("a1", "b1")
        assert len(theory.sentences) == 3

    def test_t_must_be_at_least_1(self):
        with pytest.raises(ValueError, match="^t must be at least 1$"):
            kappa_constants_theory(0)

    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_the_parsed_texts_are_the_constructor_built_theory(self, t):
        assert kappa_constants_theory(t) == built_kappa_constants_theory(t)

    def test_t2_has_a_model(self):
        result = find_model(
            kappa_constants_theory(2),
            SearchBudget(max_size=10, node_limit=10**9, time_limit=290),
        )
        assert isinstance(result, Model)
        assert result.lattice.n == 10

    def test_independent_witness_on_the_grid(self):
        # 3^t grid: coordinate blocks a_i = {x : x_i = 0}, b_i = {x : x_i = 2}
        t = 2
        points = [(i, j) for i in range(3) for j in range(3)]
        a = [
            {p for p in points if p[i] == 0} for i in range(t)
        ]
        b = [
            {p for p in points if p[i] == 2} for i in range(t)
        ]
        for i in range(t):
            assert not (a[i] & b[i])
        for pmask in range(1 << t):
            for qmask in range(1 << t):
                if pmask & qmask or (pmask == 0 and qmask == 0):
                    continue
                acc = set(points)
                for i in range(t):
                    if pmask >> i & 1:
                        acc &= a[i]
                    if qmask >> i & 1:
                        acc &= b[i]
                assert acc

    def test_inconsistent_variant_exhausts_everywhere(self):
        theory = kappa_constants_theory(2)
        bad = Theory(
            theory.constants,
            theory.sentences + (Eq(Const("a1"), Const("b1")),),
        )
        for max_size in (3, 5, 7):
            result = find_model(bad, SearchBudget(max_size=max_size))
            assert result == ExhaustedNoModel(max_size)


class TestHiPreimage:
    def test_two_element_base(self):
        theory = hi_preimage_theory(chain(2))
        result = find_model(theory, SearchBudget(max_size=4))
        assert isinstance(result, Model) and result.lattice.n == 2

    def test_boolean_four_base_exhausts(self):
        theory = hi_preimage_theory(powerset_lattice(2))
        result = find_model(theory, SearchBudget(max_size=6))
        assert result == ExhaustedNoModel(6)

    def test_three_chain_base_outcome_recorded(self):
        theory = hi_preimage_theory(chain(3))
        result = find_model(theory, SearchBudget(max_size=6))
        # connectedness + disjunctivity + a nontrivial named element
        assert result == ExhaustedNoModel(6)

    def test_distributive_disjunctive_and_connected_only_on_two_elements(self):
        # so a finite model of the theory has 2 elements (see its docstring)
        lattices = [L for n in range(2, 9) for L in lattices_of_size(n)]
        assert len(lattices) == 299
        both = [L.n for L in lattices if is_distributive(L)[0] and is_disjunctive(L)[0] and conn(L, L.top)[0]]
        assert both == [2]

    @pytest.mark.parametrize("k", range(2, 7))
    def test_a_powerset_fails_only_connectedness(self, k):
        L = powerset_lattice(k)
        assert satisfies_HI(L)[0] and is_distributive(L)[0] and is_disjunctive(L)[0]
        assert not conn(L, L.top)[0]


class TestBuildPreimage:
    def test_one_point_pipeline_succeeds(self):
        from wallman_lab.spaces import discrete_space

        report = build_preimage(discrete_space(1), SearchBudget(max_size=4))
        assert isinstance(report["model"], Model)
        assert report["wallman"]["points"] == 1
        assert report["surjection"]["onto"]

    def test_a_model_that_is_not_distributive_stops_at_the_wallman_stage(self):
        from wallman_lab.spaces import discrete_space

        theory = Theory((), (Not(builtin_distributive()),))
        report = build_preimage(discrete_space(1), SearchBudget(max_size=5), theory=theory)
        assert isinstance(report["model"], Model) and report["model"].lattice.n == 5
        assert report["wallman"] == {"error": "Wallman construction needs a distributive lattice"}
        assert "surjection" not in report

    def test_two_point_pipeline_stalls_at_model_stage(self):
        from wallman_lab.spaces import discrete_space

        report = build_preimage(discrete_space(2), SearchBudget(max_size=5))
        assert report["model"] == ExhaustedNoModel(5)
        assert "surjection" not in report

    def test_two_point_pipeline_without_connectedness(self):
        from wallman_lab.spaces import discrete_space

        X = discrete_space(2)
        theory = hi_preimage_theory(
            __import__("wallman_lab.spaces", fromlist=["closed_set_lattice"]).closed_set_lattice(X)
        )
        trimmed = Theory(
            theory.constants,
            tuple(s for s in theory.sentences if s != builtin_conn()),
        )
        report = build_preimage(X, SearchBudget(max_size=5), theory=trimmed)
        assert isinstance(report["model"], Model)
        assert report["surjection"]["onto"] and report["surjection"]["preimage_identity"]

    def test_the_three_point_sweep_is_pinned(self):
        # only the indiscrete space has a model; every other one exhausts size 10
        script = Path(__file__).resolve().parents[1] / "scripts" / "preimage_pipeline.py"
        proc = subprocess.run([sys.executable, str(script), "--sweep", "3"], capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[:2] == ["28 ExhaustedNoModel(max_size=10)", "1 Model on 2 elements"]


class TestSubsetConsistency:
    def test_singletons_of_degenerate_theory(self):
        theory = hi_preimage_theory(chain(2))
        parts = [(s,) for s in theory.sentences]
        results = check_finite_subset_consistency(theory, parts, SearchBudget(max_size=3))
        assert all(isinstance(r, Model) for r in results)

    def test_jointly_inconsistent_fragments(self):
        full = Theory(
            (),
            (
                builtin_conn(),
                parse("E x. (!(x = 0) & !(x = 1))"),
                builtin_disjunctive(),
                builtin_distributive(),
            ),
        )
        parts = [
            (builtin_conn(),),
            (parse("E x. (!(x = 0) & !(x = 1))"), builtin_disjunctive(), builtin_distributive()),
        ]
        results = check_finite_subset_consistency(full, parts, SearchBudget(max_size=4))
        assert all(isinstance(r, Model) for r in results)
        assert isinstance(find_model(full, SearchBudget(max_size=4)), ExhaustedNoModel)

    def test_empty_part(self):
        theory = Theory((), (builtin_conn(),))
        (result,) = check_finite_subset_consistency(theory, [()], SearchBudget(max_size=2))
        assert isinstance(result, Model) and result.lattice.n == 2

    def test_a_part_outside_the_theory_is_refused(self):
        theory = Theory((), (builtin_conn(),))
        with pytest.raises(PreconditionViolated, match="^a part holds a sentence that is not in the theory$"):
            check_finite_subset_consistency(theory, [(builtin_HI(),)])


class TestSelfChecksUnderOptimization:
    """`python -O` strips assert statements; the package's checks must stay."""

    def run_optimized(self, code):
        return subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)

    def test_a_model_that_fails_reverification_is_refused(self):
        proc = self.run_optimized(
            "from wallman_lab import modelfinder as mf\n"
            "from wallman_lab.errors import PostconditionFailed\n"
            "from wallman_lab.fol import Theory, builtin_distributive\n"
            "mf.eval_formula = lambda L, s, interp=None: False\n"
            "try:\n"
            "    mf.find_model(Theory((), (builtin_distributive(),)), mf.SearchBudget(max_size=2))\n"
            "except PostconditionFailed:\n"
            "    print('refused')\n"
        )
        assert proc.stdout.strip() == "refused", proc.stderr

    def test_a_part_outside_the_theory_is_rejected(self):
        proc = self.run_optimized(
            "from wallman_lab.errors import PreconditionViolated\n"
            "from wallman_lab.fol import Theory, builtin_HI, builtin_conn\n"
            "from wallman_lab.modelfinder import check_finite_subset_consistency\n"
            "try:\n"
            "    check_finite_subset_consistency(Theory((), (builtin_conn(),)), [(builtin_HI(),)])\n"
            "except PreconditionViolated:\n"
            "    print('rejected')\n"
        )
        assert proc.stdout.strip() == "rejected", proc.stderr


MODEL_SWEEP = Path(__file__).resolve().parents[1] / "scripts" / "model_sweep.py"


def test_the_size_7_model_sweep_is_pinned():
    proc = subprocess.run(
        [sys.executable, str(MODEL_SWEEP), "--max-size", "7"], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert [line.split(";")[0] for line in proc.stdout.splitlines()] == [
        "kappa1: 1 theories, 21 nodes, sha256 3882ff9fea4114df4664e0241152d9c0c86e3b1b4783cd94f7100c46f6f078f9",
        "kappa2: 1 theories, 20866 nodes, sha256 67306bcff56be3e90c71f7d67677f003940a28a802be39f563ab379c2ce788d4",
        "preimage2: 1 theories, 83 nodes, sha256 67306bcff56be3e90c71f7d67677f003940a28a802be39f563ab379c2ce788d4",
        "small: 793 theories, 3978 nodes, sha256 b626fdac228462f2c3adb8e148e776e5094d973668c48b706ab195bc3412011a",
    ]


def test_the_model_sweep_exits_1_when_a_digest_differs(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("model_sweep", MODEL_SWEEP)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    monkeypatch.setitem(sweep.PINNED[7], "kappa2", "0" * 64)
    monkeypatch.setattr(sys, "argv", ["model_sweep.py", "--max-size", "7"])
    tick = _Budget.tick
    assert sweep.main() == 1
    assert _Budget.tick is tick
    out = capsys.readouterr().out
    assert out.count("differs") == 1 and f"kappa2 differs from its pinned digest {'0' * 64}" in out
