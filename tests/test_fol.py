import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wallman_lab.errors import (
    DuplicateName,
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

    def test_duplicate_names_rejected(self):
        with pytest.raises(DuplicateName):
            diagram(chain(2), [("z", 0), ("z", 1)])

    def test_a_value_that_is_not_an_element_is_refused(self):
        L = chain(3)
        for bad in (-1, L.n, True):
            with pytest.raises(PreconditionViolated):
                diagram(L, {"x": bad})
            with pytest.raises(PreconditionViolated):
                diagram(L, [("x", 0), ("y", bad)])
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
