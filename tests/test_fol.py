import importlib.util
import subprocess
import sys
import types
from pathlib import Path

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wallman_lab.errors import (
    FormulaSyntaxError,
    MissingConstant,
    PreconditionViolated,
    UnboundVariable,
)
from wallman_lab.enumeration import lattices_of_size
from wallman_lab.fol import (
    And,
    BOT,
    Bottom,
    Const,
    Eq,
    Exists,
    Forall,
    Implies,
    Join,
    JPred,
    Leq,
    Meet,
    MPred,
    Not,
    Or,
    Theory,
    TOP,
    Top,
    Var,
    bind_constants,
    builtin_HI,
    builtin_conn,
    builtin_dim_le1,
    builtin_disjunctive,
    builtin_distributive,
    builtin_normality,
    compile_sentence,
    constant_names,
    diagram,
    eval_formula,
    free_variables,
    parse,
    print_formula,
    theory_holds,
    _tokenize,
)
from wallman_lab.lattice import (
    chain,
    conn,
    diamond_m3,
    enumerate_distributive,
    is_disjunctive,
    is_distributive,
    is_normal,
    powerset_lattice,
    satisfies_HI,
    satisfies_dim_le1,
)
from wallman_lab.modelfinder import _plan


class TestParser:
    def test_trivial_equality(self):
        assert parse("0 = 0") == Eq(BOT, BOT)

    def test_separation_formula_matrix(self):
        text = (
            "A x. A y. ((x ^ y = 0) -> "
            "E u. E v. ((x ^ u = 0) & (y ^ v = 0) & (u v v = 1)))"
        )
        x, y, u, v = Var("x"), Var("y"), Var("u"), Var("v")
        expected = Forall(
            "x",
            Forall(
                "y",
                Implies(
                    Eq(Meet(x, y), BOT),
                    Exists(
                        "u",
                        Exists(
                            "v",
                            And(
                                And(Eq(Meet(x, u), BOT), Eq(Meet(y, v), BOT)),
                                Eq(Join(u, v), TOP),
                            ),
                        ),
                    ),
                ),
            ),
        )
        assert parse(text) == expected

    def test_dangling_quantifier_is_an_error(self):
        with pytest.raises(FormulaSyntaxError):
            parse("E x.")

    def test_error_carries_position(self):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse("x ^ = 0")
        assert exc.value.position == 4

    def test_v_is_join_in_operator_position(self):
        assert parse("u v v = 1") == Eq(Join(Var("u"), Var("v")), TOP)

    def test_leq_sugar(self):
        assert parse("x <= y") == Leq(Var("x"), Var("y"))

    def test_j_and_m_predicates(self):
        assert parse("J(x, y)") == JPred(Var("x"), Var("y"))
        assert parse("M(x, y, z)") == MPred((Var("x"), Var("y"), Var("z")))

    def test_meet_binds_tighter_than_join(self):
        assert parse("a v b ^ c = 0") == Eq(Join(Var("a"), Meet(Var("b"), Var("c"))), BOT)

    def test_implication_is_right_associative(self):
        f = parse("x = 0 -> y = 0 -> x = y")
        assert isinstance(f, Implies) and isinstance(f.right, Implies)

    def test_parenthesized_formula_vs_term(self):
        assert parse("(x ^ y) = 0") == Eq(Meet(Var("x"), Var("y")), BOT)
        assert parse("(x = 0) -> (y = 0)") == Implies(Eq(Var("x"), BOT), Eq(Var("y"), BOT))


class TestPrinter:
    def test_builtins_round_trip(self):
        for f in (
            builtin_normality(),
            builtin_conn(),
            builtin_HI(),
            builtin_dim_le1(),
            builtin_distributive(),
            builtin_disjunctive(),
        ):
            assert parse(print_formula(f)) == f

    def test_nested_join_needs_parens(self):
        f = Eq(Join(Var("a"), Join(Var("b"), Var("c"))), BOT)
        text = print_formula(f)
        assert parse(text) == f


def term_strategy(depth=2):
    leaves = st.sampled_from(
        [BOT, TOP, Var("x"), Var("y"), Var("z"), Var("w")]
    )
    return st.recursive(
        leaves,
        lambda sub: st.builds(Meet, sub, sub) | st.builds(Join, sub, sub),
        max_leaves=6,
    )


def formula_strategy():
    atoms = (
        st.builds(Eq, term_strategy(), term_strategy())
        | st.builds(Leq, term_strategy(), term_strategy())
        | st.builds(JPred, term_strategy(), term_strategy())
        | st.builds(MPred, st.lists(term_strategy(), min_size=1, max_size=3).map(tuple))
    )
    compound = st.recursive(
        atoms,
        lambda sub: (
            st.builds(Not, sub)
            | st.builds(And, sub, sub)
            | st.builds(Or, sub, sub)
            | st.builds(Implies, sub, sub)
            | st.builds(Forall, st.sampled_from(["x", "y", "z", "w"]), sub)
            | st.builds(Exists, st.sampled_from(["x", "y", "z", "w"]), sub)
        ),
        max_leaves=8,
    )
    return compound


@settings(max_examples=1000, deadline=None)
@given(formula_strategy())
def test_print_parse_round_trip(f):
    assert parse(print_formula(f)) == f


def _outcome(fn, *args):
    """What fn returns, or the type, message and position of what it raises."""
    try:
        return fn(*args)
    except Exception as err:
        return type(err), str(err), getattr(err, "position", None)


# names that are also keywords or operators where they stand: v, A, E, J, M
NAMES_AND_KEYWORDS = ["x", "y", "z", "v", "A", "E", "J", "M"]
VOCABULARY = ["(", ")", "=", "<=", ",", ".", "&", "|", "!", "^", "v", "->", "A", "E", "J", "M", "x", "0", "1", "@"]


def random_term(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([BOT, TOP, Var(rng.choice(NAMES_AND_KEYWORDS)), Const("c")])
    return rng.choice([Meet, Join])(random_term(rng, depth - 1), random_term(rng, depth - 1))


def random_formula(rng, depth):
    kind = rng.randrange(10 if depth else 4)
    if kind < 3:
        return (Eq, Leq, JPred)[kind](random_term(rng, 2), random_term(rng, 2))
    if kind == 3:
        return MPred(tuple(random_term(rng, 2) for _ in range(rng.randint(1, 3))))
    if kind == 4:
        return Not(random_formula(rng, depth - 1))
    if kind < 8:
        return (And, Or, Implies)[kind - 5](random_formula(rng, depth - 1), random_formula(rng, depth - 1))
    return (Forall, Exists)[kind - 8](rng.choice(NAMES_AND_KEYWORDS), random_formula(rng, depth - 1))


def mutated(rng, text):
    """text with one token deleted, repeated, swapped with the next, replaced
    or preceded by an inserted one, or with the text cut before it; the
    tokens joined by single spaces."""
    tokens = [tok for tok, _ in _tokenize(text)[:-1]]
    i = rng.randrange(len(tokens))
    how = rng.randrange(6)
    if how == 0:
        del tokens[i]
    elif how == 1:
        tokens.insert(i, tokens[i])
    elif how == 2 and i + 1 < len(tokens):
        tokens[i], tokens[i + 1] = tokens[i + 1], tokens[i]
    elif how == 3:
        tokens[i] = rng.choice(VOCABULARY)
    elif how == 4:
        tokens.insert(i, rng.choice(VOCABULARY))
    else:
        del tokens[i:]
    return " ".join(tokens)


def ill_formed(rng, depth, want_term):
    """A tree in which any child may be of the wrong kind: a formula for a
    term, a term for a formula, or no node at all."""
    roll = rng.random()
    if roll < 0.02:
        return rng.choice([3, "x", None, (Var("x"),), True])
    if roll < 0.06:
        want_term = not want_term
    if want_term:
        if depth <= 0 or rng.random() < 0.3:
            return rng.choice([BOT, TOP, Var("x"), Const("c")])
        return rng.choice([Meet, Join])(ill_formed(rng, depth - 1, True), ill_formed(rng, depth - 1, True))
    kind = rng.randrange(10 if depth > 0 else 4)
    if kind < 3:
        return (Eq, Leq, JPred)[kind](ill_formed(rng, depth - 1, True), ill_formed(rng, depth - 1, True))
    if kind == 3:
        return MPred(tuple(ill_formed(rng, depth - 1, True) for _ in range(rng.randint(0, 2))))
    if kind == 4:
        return Not(ill_formed(rng, depth - 1, False))
    if kind < 8:
        return (And, Or, Implies)[kind - 5](ill_formed(rng, depth - 1, False), ill_formed(rng, depth - 1, False))
    return (Forall, Exists)[kind - 8]("x", ill_formed(rng, depth - 1, False))


def deepest(parse_text, shape):
    """The deepest nesting d at which parse_text(shape(d)) returns, searched
    from this stack depth."""
    low, high = 1, 4096  # parses at low; not at high
    while high - low > 1:
        mid = (low + high) // 2
        try:
            parse_text(shape(mid))
            low = mid
        except RecursionError:
            high = mid
    return low


class TestParserAndPrinterMatchTheFrozenCopies:
    """The parser and printer that read one precedence table give the trees,
    texts and errors of the frozen copies with a method per level."""

    @settings(max_examples=500, deadline=None)
    @given(formula_strategy())
    def test_hypothesis_formulas_print_and_parse_alike(self, f):
        text = print_formula(f)
        assert text == oracles.frozen_print_formula(f)
        assert parse(text) == oracles.frozen_parse(text) == f

    def test_mutated_texts_give_the_same_tree_or_error(self, rng):
        refused = 0
        for _ in range(2000):
            text = print_formula(random_formula(rng, 4))
            for candidate in [text] + [mutated(rng, text) for _ in range(5)]:
                got = _outcome(parse, candidate)
                assert got == _outcome(oracles.frozen_parse, candidate), candidate
                refused += isinstance(got, tuple)
        assert refused > 5000  # most mutations are refused, so the errors are compared

    def test_ill_formed_trees_print_alike_or_are_refused_alike(self, rng):
        refused = 0
        for _ in range(10000):
            f = ill_formed(rng, 4, rng.random() < 0.2)
            got = _outcome(print_formula, f)
            assert got == _outcome(oracles.frozen_print_formula, f), f
            refused += isinstance(got, tuple)
        assert 2000 < refused < 8000  # both outcomes are compared

    @pytest.mark.parametrize(
        "shape",
        [
            lambda d: "(" * d + "0 = 0" + ")" * d,
            lambda d: "(" * d + "0" + ")" * d + " = 0",
            lambda d: "!(" * d + "0 = 0" + ")" * d,
        ],
        ids=["formula-parentheses", "term-parentheses", "negated-parentheses"],
    )
    def test_every_nesting_the_frozen_parser_reads_still_parses(self, shape):
        d = deepest(oracles.frozen_parse, shape)
        assert deepest(parse, shape) >= d
        assert parse(shape(d)) == oracles.frozen_parse(shape(d))


@settings(max_examples=150, deadline=None)
@given(formula_strategy(), st.integers(min_value=0, max_value=3))
def test_closed_formulas_evaluate(f, pick):
    for v in sorted(free_variables(f)):
        f = Forall(v, f)
    lattices = [chain(2), chain(3), powerset_lattice(2), diamond_m3()]
    assert eval_formula(lattices[pick], f) in (True, False)


def reference_term(L, t, consts, env):
    if isinstance(t, Bottom):
        return L.bottom
    if isinstance(t, Top):
        return L.top
    if isinstance(t, Const):
        return consts[t.name]
    if isinstance(t, Var):
        return env[t.name]
    a = reference_term(L, t.left, consts, env)
    b = reference_term(L, t.right, consts, env)
    return L.meet[a][b] if isinstance(t, Meet) else L.join[a][b]


def reference_eval(L, f, consts, env):
    """Tarskian truth by plain recursion: no pruning, no normal form."""
    if isinstance(f, (Eq, Leq, JPred)):
        a = reference_term(L, f.left, consts, env)
        b = reference_term(L, f.right, consts, env)
        if isinstance(f, Eq):
            return a == b
        if isinstance(f, Leq):
            return L.meet[a][b] == a
        return L.join[a][b] == L.top
    if isinstance(f, MPred):
        acc = L.top
        for t in f.terms:
            acc = L.meet[acc][reference_term(L, t, consts, env)]
        return acc == L.bottom
    if isinstance(f, Not):
        return not reference_eval(L, f.body, consts, env)
    if isinstance(f, And):
        return reference_eval(L, f.left, consts, env) and reference_eval(L, f.right, consts, env)
    if isinstance(f, Or):
        return reference_eval(L, f.left, consts, env) or reference_eval(L, f.right, consts, env)
    if isinstance(f, Implies):
        return not reference_eval(L, f.left, consts, env) or reference_eval(L, f.right, consts, env)
    values = [reference_eval(L, f.body, consts, {**env, f.var: v}) for v in range(L.n)]
    return all(values) if isinstance(f, Forall) else any(values)


SMALL_LATTICES = [L for n in range(2, 6) for L in lattices_of_size(n)]
NAMES = ["a", "b", "x", "y"]  # a, b are constants; every name may be bound


def named_formula_strategy():
    variables = [Var("a"), Var("x"), Var("y")]
    leaves = st.sampled_from([BOT, TOP, Const("a"), Const("b")] + variables * 2)
    terms = st.recursive(
        leaves, lambda sub: st.builds(Meet, sub, sub) | st.builds(Join, sub, sub), max_leaves=3
    )
    atoms = (
        st.builds(Eq, terms, terms)
        | st.builds(Leq, terms, terms)
        | st.builds(JPred, terms, terms)
        | st.builds(MPred, st.lists(terms, min_size=1, max_size=3).map(tuple))
    )
    quantifiers = st.sampled_from([Forall, Exists])
    connectives = st.sampled_from([And, Or, Implies])
    return st.recursive(
        atoms,
        lambda sub: (
            st.builds(Not, sub)
            | st.builds(lambda c, left, right: c(left, right), connectives, sub, sub)
            | st.builds(lambda q, v, body: q(v, body), quantifiers, st.sampled_from(NAMES), sub)
            # a binder right over a connective: the shapes miniscoping rewrites
            | st.builds(
                lambda q, v, c, left, right: q(v, c(left, right)),
                quantifiers,
                st.sampled_from(NAMES),
                connectives,
                sub,
                sub,
            )
        ),
        max_leaves=8,
    )


@settings(max_examples=400, deadline=None)
@given(named_formula_strategy(), st.sampled_from(SMALL_LATTICES), st.data())
def test_compiled_evaluator_agrees_with_reference(f, L, data):
    # one value per name serves the constants and the free variables alike
    interp = {nm: data.draw(st.integers(0, L.n - 1), label=nm) for nm in NAMES}
    assert eval_formula(L, f, interp) is reference_eval(L, f, interp, interp)


MINISCOPING_CASES = (
    "A x. (x = 0 | !(x = 0))",  # A over |, both parts mention x: stays
    "E x. (x = 0 & x = 1)",  # E over &, both parts mention x: stays
    "A x. (x = 0 & x <= 1)",  # A distributes over &
    "E x. (x = 0 | x = 1)",  # E distributes over |
    "A x. (a = 0 | x <= a)",  # a part without x leaves the scope
    "E x. (a = 0 & !(x = a))",
    "A x. ((x ^ a = 0 & x ^ b = 0) -> x = 0)",  # conjunctive antecedent, curried
    "!(A x. E y. (x ^ y = 0 & x v y = 1))",
    "E x. (A y. (y <= x) & !(x = 1))",
    "A x. (E y. (x ^ y = 0 & !(y = 0)) -> !(x = 1) | a = x)",
)


def test_miniscoping_keeps_truth():
    lattices = [chain(2), chain(3), powerset_lattice(2), diamond_m3(), lattices_of_size(5)[0]]
    for text in MINISCOPING_CASES:
        f = bind_constants(parse(text), ("a", "b"))
        for L in lattices:
            for a in range(L.n):
                for b in range(L.n):
                    interp = {"a": a, "b": b}
                    assert eval_formula(L, f, interp) is reference_eval(L, f, interp, interp), (text, L.names, interp)


class TestEval:
    def test_conn_false_on_boolean_four(self):
        assert eval_formula(powerset_lattice(2), builtin_conn()) is False

    def test_normality_true_on_two_element(self):
        assert eval_formula(chain(2), builtin_normality()) is True

    def test_HI_on_powerset(self):
        assert eval_formula(powerset_lattice(3), builtin_HI()) is True

    def test_missing_constant(self):
        with pytest.raises(MissingConstant):
            eval_formula(chain(2), Eq(Const("a"), BOT))

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariable):
            eval_formula(chain(2), Eq(Var("a"), BOT))

    def test_constant_interpretation(self):
        assert eval_formula(chain(3), Eq(Const("m"), BOT), {"m": 0})
        assert not eval_formula(chain(3), Eq(Const("m"), BOT), {"m": 1})

    def test_J_and_M_semantics(self):
        L = powerset_lattice(2)
        f = bind_constants(parse("J(a, b)"), ("a", "b"))
        assert eval_formula(L, f, {"a": 0b01, "b": 0b10})
        assert not eval_formula(L, f, {"a": 0b01, "b": 0b01})
        g = bind_constants(parse("M(a, b, c)"), ("a", "b", "c"))
        assert eval_formula(L, g, {"a": 0b01, "b": 0b10, "c": 0b11})
        assert not eval_formula(L, g, {"a": 0b01, "b": 0b11, "c": 0b11})

    def test_binder_shadows_a_variable_not_a_constant(self):
        L = chain(3)
        assert eval_formula(L, Forall("a", Eq(Const("a"), BOT)), {"a": 0}) is True
        assert eval_formula(L, Exists("a", Not(Eq(Const("a"), Var("a")))), {"a": 1}) is True
        inner = Exists("x", And(Eq(Var("x"), TOP), Forall("x", Leq(BOT, Var("x")))))
        assert eval_formula(L, Forall("x", inner)) is True
        assert eval_formula(L, Exists("x", And(Eq(Var("x"), BOT), Exists("x", Eq(Var("x"), TOP))))) is True

    def test_free_variable_takes_its_value_unless_bound(self):
        L = chain(3)
        f = And(Eq(Var("x"), TOP), Exists("x", Eq(Var("x"), BOT)))
        assert eval_formula(L, f, {"x": 2}) is True
        assert eval_formula(L, f, {"x": 1}) is False

    def test_missing_constant_reported_before_unbound_variable(self):
        with pytest.raises(MissingConstant):
            eval_formula(chain(2), Eq(Var("b"), Const("c")))

    def test_every_call_with_a_missing_name_raises(self):
        f = Eq(Const("a"), Var("x"))
        for _ in range(3):
            with pytest.raises(MissingConstant):
                eval_formula(chain(2), f)
            with pytest.raises(UnboundVariable):
                eval_formula(chain(2), f, {"a": 0})
            assert eval_formula(chain(2), f, {"a": 1, "x": 1}) is True

    def test_reused_compile_follows_the_order_of_the_names(self):
        L = chain(3)
        f = bind_constants(parse("a <= b"), ("a", "b"))
        for _ in range(2):
            assert eval_formula(L, f, {"a": 1, "b": 2}) is True
            assert eval_formula(L, f, {"b": 1, "a": 2}) is False

    def test_a_value_that_is_not_an_element_is_refused(self):
        L, f = chain(3), parse("A x. x <= a")
        for bad in (-1, L.n, True):
            with pytest.raises(PreconditionViolated):
                eval_formula(L, f, {"a": bad})
        assert eval_formula(L, f, {"a": 2}) is True
        assert eval_formula(L, f, {"a": 1}) is False

    def test_leq_elaborates_to_meet_equation(self):
        L = chain(3)
        f = bind_constants(parse("a <= b"), ("a", "b"))
        assert eval_formula(L, f, {"a": 1, "b": 2})
        assert not eval_formula(L, f, {"a": 2, "b": 1})


class TestBuiltinAgreement:
    def test_full_enumeration_to_seven(self):
        for L in enumerate_distributive(7):
            assert eval_formula(L, builtin_normality()) == is_normal(L)[0]
            assert eval_formula(L, builtin_conn()) == conn(L, L.top)[0]
            assert eval_formula(L, builtin_HI()) == satisfies_HI(L)[0]
            assert eval_formula(L, builtin_dim_le1()) == satisfies_dim_le1(L)[0]
            assert eval_formula(L, builtin_distributive()) == is_distributive(L)[0]
            assert eval_formula(L, builtin_disjunctive()) == is_disjunctive(L)[0]

    def test_powerset_values(self):
        for k in (1, 2, 3):
            L = powerset_lattice(k)
            assert eval_formula(L, builtin_normality()) is True
            assert eval_formula(L, builtin_conn()) is (k <= 1)
            assert eval_formula(L, builtin_HI()) is True
            assert eval_formula(L, builtin_dim_le1()) is True

    def test_conn_relativized(self):
        L = powerset_lattice(2)
        assert eval_formula(L, builtin_conn(Const("a")), {"a": 0b01}) is True
        assert eval_formula(L, builtin_conn(Const("a")), {"a": 0b11}) is False


BUILTINS = (
    (builtin_normality, oracles.built_normality),
    (builtin_conn, oracles.built_conn),
    (builtin_HI, oracles.built_HI),
    (builtin_dim_le1, oracles.built_dim_le1),
    (builtin_distributive, oracles.built_distributive),
    (builtin_disjunctive, oracles.built_disjunctive),
)


class TestBuiltinTexts:
    @pytest.mark.parametrize("builtin, built", BUILTINS, ids=lambda f: f.__name__)
    def test_the_parsed_text_is_the_constructor_built_tree(self, builtin, built):
        assert builtin() == built()

    def test_conn_of_a_term_substitutes_it(self):
        assert builtin_conn(Const("a")) == oracles.built_conn(Const("a"))
        assert builtin_conn(Var("a")) == oracles.built_conn(Var("a"))

    @pytest.mark.parametrize("builtin", [b for b, _ in BUILTINS], ids=lambda f: f.__name__)
    def test_every_call_returns_the_one_parsed_tree(self, builtin):
        assert builtin() is builtin()


LATTICES_TO_SEVEN = [L for n in range(2, 8) for L in lattices_of_size(n)]


def memos_of(test):
    """The memos in a bound test: the `memo` of each closure reached from it
    through the closures' functions and lists of functions."""
    found, todo = [], [test]
    while todo:
        fn = todo.pop()
        for name, cell in zip(fn.__code__.co_freevars, fn.__closure__ or ()):
            value = cell.cell_contents
            if name == "memo" and value is not None:
                found.append(value)
            for item in value if isinstance(value, list) else [value]:
                if isinstance(item, types.FunctionType):
                    todo.append(item)
    return found
LATTICES_SIX_AND_SEVEN = [L for L in LATTICES_TO_SEVEN if L.n >= 6]


class TestQuantifierMemos:
    """The evaluator, whose inner quantifiers keep a memo of their truth per
    value of their free slots, against the frozen closure makers that rerun
    every quantifier on every call."""

    @pytest.mark.parametrize("builtin", [b for b, _ in BUILTINS], ids=lambda f: f.__name__)
    def test_builtins_agree_on_every_lattice_to_seven(self, builtin):
        assert len(LATTICES_TO_SEVEN) == 77
        for L in LATTICES_TO_SEVEN:
            assert eval_formula(L, builtin()) is oracles.frozen_eval_formula(L, builtin()), L.meet

    @settings(max_examples=300, deadline=None)
    @given(named_formula_strategy(), st.sampled_from(LATTICES_SIX_AND_SEVEN), st.data())
    def test_formulas_with_constants_agree(self, f, L, data):
        interp = {nm: data.draw(st.integers(0, L.n - 1), label=nm) for nm in NAMES}
        assert eval_formula(L, f, interp) is oracles.frozen_eval_formula(L, f, interp)

    @pytest.mark.parametrize(
        "text, memos",
        [
            ("A x. A y. (x ^ y = 0 -> x = 0 | y = 0)", 0),  # each inner node reads every outer slot
            ("A x. E y. (x <= y & (A z. (z ^ y = 0 -> z = 0)))", 1),  # A z: x is outer, not free
            ("A x. E y. (x <= y & (A z. (z ^ x = 0 -> z <= y)))", 0),
            ("A x. (x = 0 | (!(x = 0) & (E y. !(y = 0 | y = 1))))", 1),  # a closed E y under A x
            # both A b leave out e; below them only a and b change, so the
            # four nodes under the second, E x among them, keep none
            ("A e. A a. A b. A c. A d. (e ^ a = 0 | (e v b = 1 & (E x. (x ^ a = b & x v c = d))))", 2),
        ],
    )
    def test_a_node_keeps_a_memo_only_when_a_changing_slot_is_not_free_in_it(self, text, memos):
        compiled = compile_sentence(parse(text), ())
        for L in LATTICES_TO_SEVEN[:8]:
            test = compiled.bind(L)
            assert len(memos_of(test)) == memos
            assert test([0] * compiled.width) is oracles.frozen_eval_formula(L, parse(text))

    @pytest.mark.parametrize(
        "text",
        [
            "A x. (x ^ b = 0 -> x <= c)",  # leaves out a, the first constant
            "A x. (x ^ b = 0 -> x <= b)",  # leaves out a and c
            "A x. (x ^ a = 0 -> x <= b)",  # leaves out c, the last constant
        ],
    )
    def test_a_model_finder_test_keeps_the_memos_its_compiled_sentence_keeps(self, text):
        # a constant left out is no quantifier above the node, so neither
        # caller keeps a memo for it
        names = ("a", "b", "c")
        sentence = bind_constants(parse(text), names)
        _, (_, _, bind) = _plan(sentence, names)
        L = powerset_lattice(2)
        assert len(memos_of(bind(L))) == len(memos_of(compile_sentence(sentence, names).bind(L))) == 0

    def test_a_closed_inner_quantifier_keeps_one_truth(self):
        # E y has no free slot but sits under A x: its memo has one key
        f = parse("A x. (x = 0 | (!(x = 0) & (E y. !(y = 0 | y = 1))))")
        for L in LATTICES_TO_SEVEN:
            assert eval_formula(L, f) is oracles.frozen_eval_formula(L, f) is (L.n > 2)


EVAL_SWEEP = Path(__file__).resolve().parents[1] / "scripts" / "eval_sweep.py"


def test_the_size_6_eval_sweep_is_pinned():
    proc = subprocess.run([sys.executable, str(EVAL_SWEEP), "--size", "6"], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:12] == [
        "normality eval holds 12, fails 3; direct holds 12, fails 3",
        "normality sha256 998ef59ce6d1cb8dc50c27b9379aec8ac18f5719a01557d5819c18c676393e43",
        "conn eval holds 8, fails 7; direct holds 8, fails 7",
        "conn sha256 3f403020c18f525d19f188c77873a441c2e5b94bb46b41a50d33a7758f9ac398",
        "HI eval holds 12, fails 3; direct holds 12, fails 3",
        "HI sha256 998ef59ce6d1cb8dc50c27b9379aec8ac18f5719a01557d5819c18c676393e43",
        "dim_le1 eval holds 12, fails 3; direct holds 12, fails 3",
        "dim_le1 sha256 998ef59ce6d1cb8dc50c27b9379aec8ac18f5719a01557d5819c18c676393e43",
        "distributive eval holds 5, fails 10; direct holds 5, fails 10",
        "distributive sha256 d1286da6e3343f769c8b3251deac1c308ec532ed20a64097c249a8077ee81a49",
        "disjunctive eval holds 2, fails 13; direct holds 2, fails 13",
        "disjunctive sha256 1b302e8736e50ffd79c2ce3cbd5db77d2bb3a0d88e4deaef353849e9720392c7",
    ]
    assert [line.split(" eval ")[0] for line in lines[12:]] == [b.__name__[8:] for b, _ in BUILTINS]


def test_the_eval_sweep_exits_1_when_the_paths_disagree(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("eval_sweep", EVAL_SWEEP)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    deciders = dict(sweep._deciders())
    deciders[builtin_HI()] = lambda L: L.n != 4
    monkeypatch.setattr(sweep, "_deciders", lambda: deciders)
    monkeypatch.setattr(sys, "argv", ["eval_sweep.py", "--size", "4"])
    assert sweep.main() == 1
    out = capsys.readouterr().out
    assert "HI disagrees first on lattice 0: eval True, direct False" in out
    assert out.count("disagrees") == 1


class TestDiagram:
    def test_two_element_diagram_contents(self):
        th = diagram(chain(2), {"z": 0, "o": 1})
        texts = {print_formula(s) for s in th.sentences}
        assert "(z ^ o = z)" in texts
        assert "(z v o = o)" in texts
        assert "!(o = z)" in texts or "!(z = o)" in texts

    def test_fully_named_multiplication_count(self):
        L = chain(3)
        th = diagram(L, {"a": 0, "b": 1, "c": 2})
        mult = [s for s in th.sentences if isinstance(s, Eq) and isinstance(s.left, (Meet, Join))]
        assert len(mult) == 2 * L.n * L.n

    def test_diagram_satisfied_by_embeddings_only(self):
        th = diagram(chain(3), {"z": 0, "m": 1, "o": 2})
        L = powerset_lattice(2)
        assert theory_holds(L, th, {"z": 0, "m": 0b01, "o": 0b11})
        # collapsing m to bottom breaks distinctness
        assert not theory_holds(L, th, {"z": 0, "m": 0, "o": 0b11})

    def test_a_value_that_is_not_an_element_is_refused(self):
        L = chain(3)
        for bad in (-1, L.n, True):
            with pytest.raises(PreconditionViolated):
                diagram(L, {"x": bad})
        assert diagram(L, {"x": 2}).sentences == (
            Eq(Meet(Const("x"), Const("x")), Const("x")),
            Eq(Join(Const("x"), Const("x")), Const("x")),
            Eq(Const("x"), TOP),
        )


class TestTheoryPlumbing:
    def test_bind_constants_respects_scope(self):
        f = parse("E a. a = b")
        g = bind_constants(f, ("a", "b"))
        assert g == Exists("a", Eq(Var("a"), Const("b")))

    def test_theory_holds(self):
        th = Theory(("a",), (Not(Eq(Const("a"), BOT)),))
        assert theory_holds(chain(2), th, {"a": 1})
        assert not theory_holds(chain(2), th, {"a": 0})


# The three name walks as they were before they shared one traversal: each
# its own isinstance ladder.  The shared walk must return exactly what they do.


def reference_free_variables(f):
    if isinstance(f, Var):
        return frozenset((f.name,))
    if isinstance(f, (Const, Bottom, Top)):
        return frozenset()
    if isinstance(f, (Meet, Join, Eq, Leq, JPred, And, Or, Implies)):
        return reference_free_variables(f.left) | reference_free_variables(f.right)
    if isinstance(f, MPred):
        out = frozenset()
        for t in f.terms:
            out |= reference_free_variables(t)
        return out
    if isinstance(f, Not):
        return reference_free_variables(f.body)
    if isinstance(f, (Forall, Exists)):
        return reference_free_variables(f.body) - {f.var}
    raise TypeError(f"not a formula or term: {f!r}")


def reference_constant_names(f):
    if isinstance(f, Const):
        return frozenset((f.name,))
    if isinstance(f, (Var, Bottom, Top)):
        return frozenset()
    if isinstance(f, (Meet, Join, Eq, Leq, JPred, And, Or, Implies)):
        return reference_constant_names(f.left) | reference_constant_names(f.right)
    if isinstance(f, MPred):
        out = frozenset()
        for t in f.terms:
            out |= reference_constant_names(t)
        return out
    if isinstance(f, Not):
        return reference_constant_names(f.body)
    if isinstance(f, (Forall, Exists)):
        return reference_constant_names(f.body)
    raise TypeError(f"not a formula or term: {f!r}")


def reference_bind_constants(f, names):
    names = frozenset(names)

    def go(node, bound):
        if isinstance(node, Var):
            return Const(node.name) if node.name in names and node.name not in bound else node
        if isinstance(node, (Const, Bottom, Top)):
            return node
        if isinstance(node, Meet):
            return Meet(go(node.left, bound), go(node.right, bound))
        if isinstance(node, Join):
            return Join(go(node.left, bound), go(node.right, bound))
        if isinstance(node, Eq):
            return Eq(go(node.left, bound), go(node.right, bound))
        if isinstance(node, Leq):
            return Leq(go(node.left, bound), go(node.right, bound))
        if isinstance(node, JPred):
            return JPred(go(node.left, bound), go(node.right, bound))
        if isinstance(node, MPred):
            return MPred(tuple(go(t, bound) for t in node.terms))
        if isinstance(node, Not):
            return Not(go(node.body, bound))
        if isinstance(node, And):
            return And(go(node.left, bound), go(node.right, bound))
        if isinstance(node, Or):
            return Or(go(node.left, bound), go(node.right, bound))
        if isinstance(node, Implies):
            return Implies(go(node.left, bound), go(node.right, bound))
        if isinstance(node, Forall):
            return Forall(node.var, go(node.body, bound | {node.var}))
        if isinstance(node, Exists):
            return Exists(node.var, go(node.body, bound | {node.var}))
        raise TypeError(f"not a formula or term: {node!r}")

    return go(f, frozenset())


def quantifier_nodes(f):
    if isinstance(f, (Forall, Exists)):
        return 1 + quantifier_nodes(f.body)
    if isinstance(f, (And, Or, Implies)):
        return quantifier_nodes(f.left) + quantifier_nodes(f.right)
    if isinstance(f, Not):
        return quantifier_nodes(f.body)
    return 0


@settings(max_examples=400, deadline=None)
@given(named_formula_strategy(), st.sets(st.sampled_from(NAMES)))
def test_name_walks_agree_with_reference(f, names):
    assert free_variables(f) == reference_free_variables(f)
    assert constant_names(f) == reference_constant_names(f)
    bound = bind_constants(f, names)
    assert bound == reference_bind_constants(f, names)
    assert (bound is f) == (bound == f)  # a walk that changes nothing copies nothing


class TestNameWalks:
    def test_a_binder_shadows_a_listed_name(self):
        f = parse("A a. a = b")
        assert bind_constants(f, ("a", "b")) == Forall("a", Eq(Var("a"), Const("b")))
        assert free_variables(f) == {"b"}
        assert constant_names(bind_constants(f, ("a", "b"))) == {"b"}

    def test_mpred_terms_are_walked(self):
        f = Exists("x", MPred((Var("x"), Meet(Var("a"), Const("c")), Join(Var("b"), TOP))))
        assert free_variables(f) == {"a", "b"}
        assert constant_names(f) == {"c"}
        assert bind_constants(f, ("a", "x")) == Exists(
            "x", MPred((Var("x"), Meet(Const("a"), Const("c")), Join(Var("b"), TOP)))
        )

    def test_unchanged_subtrees_are_shared_not_copied(self):
        f = parse("A x. (x ^ a = 0 | (E y. (y v x = 1 & !(y <= a))))")
        assert bind_constants(f, ()) is f
        assert bind_constants(f, ("x", "y", "q")) is f  # x and y are bound, q is not mentioned
        g = bind_constants(f, ("a",))
        assert constant_names(g) == {"a"} and free_variables(g) == set()
        assert g.body.right.body.left is f.body.right.body.left  # y v x = 1 has no a

    def test_a_non_formula_is_refused(self):
        for walk in (free_variables, constant_names, lambda f: bind_constants(f, ())):
            with pytest.raises(TypeError, match="not a formula or term"):
                walk(Not("x = 0"))


@settings(max_examples=300, deadline=None)
@given(named_formula_strategy())
def test_compiled_width_counts_the_quantifier_nodes(f):
    # the model finder orders the sentences of a stage by this difference
    assert compile_sentence(f, NAMES).width - len(NAMES) == quantifier_nodes(f)



class TestKeptHashes:
    """A node keeps its hash after the first use; equality, repr, printing
    and pickling are as they were."""

    TEXT = "A x. (x ^ a = 0 | (E y. (y v x = 1 & !(y <= a))))"

    def test_equal_trees_hash_alike_and_keep_it(self):
        f, g = parse(self.TEXT), parse(self.TEXT)
        assert "_hash" not in vars(f)
        assert hash(f) == hash(g) and f == g and {f: 1}[g] == 1
        assert vars(f)["_hash"] == hash(f)
        assert f != parse("A x. (x ^ a = 0 | (E y. (y v x = 1 & !(a <= y))))")

    def test_repr_printing_and_pickling_do_not_see_it(self):
        import pickle

        f = parse(self.TEXT)
        before = repr(f), print_formula(f)
        hash(f)
        assert (repr(f), print_formula(f)) == before and "_hash" not in repr(f)
        copy = pickle.loads(pickle.dumps(f))
        assert "_hash" not in vars(copy) and copy == f and hash(copy) == hash(f)
