"""First-order lattice language: AST, parser, printer, evaluator, builtins.

Grammar (meet `^` binds tighter than join `v`; `&`, `|`, `!`, `->` are the
logical connectives; `A x.` / `E x.` quantify)::

    formula := quant | impl
    quant   := ("A" | "E") ident "." formula
    impl    := disj ("->" formula)?
    disj    := conj ("|" conj)*
    conj    := neg ("&" neg)*
    neg     := "!" neg | atom
    atom    := "(" formula ")" | term ("=" | "<=") term
             | "J(" term "," term ")" | "M(" term ("," term)* ")"
    term    := factor ("v" factor)*
    factor  := prim ("^" prim)*
    prim    := "0" | "1" | ident | "(" term ")"

The word `v` doubles as the join operator: it is an operator where an
operator may appear and an identifier where an operand is required, so
``u v v`` parses as join(u, v).  `A`, `E` act as quantifiers only when
followed by an identifier and a dot.  Avoid `J` and `M` as identifiers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    DuplicateName,
    FormulaSyntaxError,
    MissingConstant,
    UnboundVariable,
)

# ---------------------------------------------------------------- AST


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Bottom:
    pass


@dataclass(frozen=True)
class Top:
    pass


@dataclass(frozen=True)
class Meet:
    left: object
    right: object


@dataclass(frozen=True)
class Join:
    left: object
    right: object


@dataclass(frozen=True)
class Eq:
    left: object
    right: object


@dataclass(frozen=True)
class Leq:
    """Sugar: s <= t means s ^ t = s."""

    left: object
    right: object


@dataclass(frozen=True)
class JPred:
    """J(s, t): the join of s and t is the top element."""

    left: object
    right: object


@dataclass(frozen=True)
class MPred:
    """M(t1, ..., tn): the meet of the arguments is the bottom element."""

    terms: tuple


@dataclass(frozen=True)
class Not:
    body: object


@dataclass(frozen=True)
class And:
    left: object
    right: object


@dataclass(frozen=True)
class Or:
    left: object
    right: object


@dataclass(frozen=True)
class Implies:
    left: object
    right: object


@dataclass(frozen=True)
class Forall:
    var: str
    body: object


@dataclass(frozen=True)
class Exists:
    var: str
    body: object


@dataclass(frozen=True)
class Theory:
    constants: tuple
    sentences: tuple


BOT = Bottom()
TOP = Top()

# ---------------------------------------------------------------- parser

_TOKEN_RE = re.compile(r"\s*(->|<=|[()=,.&|!^]|[A-Za-z_][A-Za-z0-9_]*|0|1)")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or not m.group(1):
            if text[pos:].strip():
                raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos)
            break
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    tokens.append((None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self, ahead=0):
        j = min(self.i + ahead, len(self.tokens) - 1)
        return self.tokens[j][0]

    def next(self):
        tok, pos = self.tokens[self.i]
        self.i += 1
        return tok, pos

    def expect(self, want):
        tok, pos = self.next()
        if tok != want:
            raise FormulaSyntaxError(f"expected {want!r}, found {tok!r}", pos)
        return tok

    @staticmethod
    def _is_ident(tok):
        return tok is not None and re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok) is not None

    # formula level -------------------------------------------------

    def formula(self):
        if self.peek() in ("A", "E") and self._is_ident(self.peek(1)) and self.peek(2) == ".":
            quant, _ = self.next()
            var, _ = self.next()
            self.expect(".")
            body = self.formula()
            return Forall(var, body) if quant == "A" else Exists(var, body)
        return self.impl()

    def impl(self):
        left = self.disj()
        if self.peek() == "->":
            self.next()
            return Implies(left, self.formula())
        return left

    def disj(self):
        out = self.conj()
        while self.peek() == "|":
            self.next()
            out = Or(out, self.conj())
        return out

    def conj(self):
        out = self.neg()
        while self.peek() == "&":
            self.next()
            out = And(out, self.neg())
        return out

    def neg(self):
        if self.peek() == "!":
            self.next()
            return Not(self.neg())
        return self.atom()

    def atom(self):
        tok = self.peek()
        if tok == "J" and self.peek(1) == "(":
            self.next()
            self.next()
            left = self.term()
            self.expect(",")
            right = self.term()
            self.expect(")")
            return JPred(left, right)
        if tok == "M" and self.peek(1) == "(":
            self.next()
            self.next()
            terms = [self.term()]
            while self.peek() == ",":
                self.next()
                terms.append(self.term())
            self.expect(")")
            return MPred(tuple(terms))
        # a comparison of terms, or a parenthesized formula: try the
        # comparison first and fall back on the formula reading
        mark = self.i
        try:
            left = self.term()
            op, pos = self.next()
            if op not in ("=", "<="):
                raise FormulaSyntaxError(f"expected '=' or '<=', found {op!r}", pos)
            right = self.term()
            return Eq(left, right) if op == "=" else Leq(left, right)
        except FormulaSyntaxError:
            self.i = mark
            if self.peek() == "(":
                self.next()
                body = self.formula()
                self.expect(")")
                return body
            raise

    # term level ----------------------------------------------------

    def term(self):
        out = self.factor()
        while self.peek() == "v":
            self.next()
            out = Join(out, self.factor())
        return out

    def factor(self):
        out = self.prim()
        while self.peek() == "^":
            self.next()
            out = Meet(out, self.prim())
        return out

    def prim(self):
        tok, pos = self.next()
        if tok == "0":
            return BOT
        if tok == "1":
            return TOP
        if tok == "(":
            out = self.term()
            self.expect(")")
            return out
        if self._is_ident(tok):
            return Var(tok)
        raise FormulaSyntaxError(f"expected a term, found {tok!r}", pos)


def parse(text):
    p = _Parser(text)
    out = p.formula()
    tok, pos = p.tokens[p.i]
    if tok is not None:
        raise FormulaSyntaxError(f"trailing input: {tok!r}", pos)
    return out


# ---------------------------------------------------------------- printer


def _print_term(t, level):
    """level 0 = term (join allowed), 1 = factor (meet allowed), 2 = prim."""
    if isinstance(t, Bottom):
        return "0"
    if isinstance(t, Top):
        return "1"
    if isinstance(t, (Var, Const)):
        return t.name
    if isinstance(t, Join):
        s = f"{_print_term(t.left, 0)} v {_print_term(t.right, 1)}"
        return f"({s})" if level > 0 else s
    if isinstance(t, Meet):
        s = f"{_print_term(t.left, 1)} ^ {_print_term(t.right, 2)}"
        return f"({s})" if level > 1 else s
    raise TypeError(f"not a term: {t!r}")


def _print_formula(f, level):
    """level 0 = formula, 1 = impl, 2 = disj, 3 = conj, 4 = neg/atom."""
    if isinstance(f, (Forall, Exists)):
        q = "A" if isinstance(f, Forall) else "E"
        s = f"{q} {f.var}. {_print_formula(f.body, 0)}"
        return f"({s})" if level > 0 else s
    if isinstance(f, Implies):
        s = f"{_print_formula(f.left, 2)} -> {_print_formula(f.right, 0)}"
        return f"({s})" if level > 1 else s
    if isinstance(f, Or):
        s = f"{_print_formula(f.left, 2)} | {_print_formula(f.right, 3)}"
        return f"({s})" if level > 2 else s
    if isinstance(f, And):
        s = f"{_print_formula(f.left, 3)} & {_print_formula(f.right, 4)}"
        return f"({s})" if level > 3 else s
    if isinstance(f, Not):
        return f"!{_print_formula(f.body, 4)}"
    if isinstance(f, Eq):
        return f"({_print_term(f.left, 0)} = {_print_term(f.right, 0)})"
    if isinstance(f, Leq):
        return f"({_print_term(f.left, 0)} <= {_print_term(f.right, 0)})"
    if isinstance(f, JPred):
        return f"J({_print_term(f.left, 0)}, {_print_term(f.right, 0)})"
    if isinstance(f, MPred):
        return "M(" + ", ".join(_print_term(t, 0) for t in f.terms) + ")"
    raise TypeError(f"not a formula: {f!r}")


def print_formula(f):
    return _print_formula(f, 0)

# ---------------------------------------------------------------- free names


@lru_cache(maxsize=None)
def free_variables(f):
    """Free variable names of a formula or term (constants excluded)."""
    if isinstance(f, Var):
        return frozenset((f.name,))
    if isinstance(f, (Const, Bottom, Top)):
        return frozenset()
    if isinstance(f, (Meet, Join, Eq, Leq, JPred, And, Or, Implies)):
        return free_variables(f.left) | free_variables(f.right)
    if isinstance(f, MPred):
        out = frozenset()
        for t in f.terms:
            out |= free_variables(t)
        return out
    if isinstance(f, Not):
        return free_variables(f.body)
    if isinstance(f, (Forall, Exists)):
        return free_variables(f.body) - {f.var}
    raise TypeError(f"not a formula or term: {f!r}")


@lru_cache(maxsize=None)
def constant_names(f):
    if isinstance(f, Const):
        return frozenset((f.name,))
    if isinstance(f, (Var, Bottom, Top)):
        return frozenset()
    if isinstance(f, (Meet, Join, Eq, Leq, JPred, And, Or, Implies)):
        return constant_names(f.left) | constant_names(f.right)
    if isinstance(f, MPred):
        out = frozenset()
        for t in f.terms:
            out |= constant_names(t)
        return out
    if isinstance(f, Not):
        return constant_names(f.body)
    if isinstance(f, (Forall, Exists)):
        return constant_names(f.body)
    raise TypeError(f"not a formula or term: {f!r}")


def bind_constants(f, names):
    """Turn free variables whose names appear in `names` into constants."""
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

# ---------------------------------------------------------------- evaluator


@dataclass(frozen=True)
class _Lit:
    """Internal term node: an already-resolved lattice element."""

    value: int


def _sub_term(t, L, env):
    """Substitute env into a term; returns an int when fully resolved."""
    if isinstance(t, _Lit):
        return t.value
    if isinstance(t, Bottom):
        return L.bottom
    if isinstance(t, Top):
        return L.top
    if isinstance(t, (Var, Const)):
        return env[t.name] if t.name in env else t
    if isinstance(t, Meet):
        a = _sub_term(t.left, L, env)
        b = _sub_term(t.right, L, env)
        if isinstance(a, int) and isinstance(b, int):
            return L.meet[a][b]
        return Meet(a if isinstance(a, (Meet, Join, Var, Const, _Lit)) else _Lit(a),
                    b if isinstance(b, (Meet, Join, Var, Const, _Lit)) else _Lit(b))
    if isinstance(t, Join):
        a = _sub_term(t.left, L, env)
        b = _sub_term(t.right, L, env)
        if isinstance(a, int) and isinstance(b, int):
            return L.join[a][b]
        return Join(a if isinstance(a, (Meet, Join, Var, Const, _Lit)) else _Lit(a),
                    b if isinstance(b, (Meet, Join, Var, Const, _Lit)) else _Lit(b))
    raise TypeError(f"not a term: {t!r}")


def _wrap(v):
    return _Lit(v) if isinstance(v, int) else v


def _partial(f, L, env):
    """Substitute env and constant-fold; returns a bool or a residual formula.

    Quantifiers are left in place (their bound variables are still open);
    every atom that became ground is decided, and connectives collapse, so a
    single failed conjunct or antecedent prunes all inner quantifier loops.
    """
    if isinstance(f, Eq):
        a = _sub_term(f.left, L, env)
        b = _sub_term(f.right, L, env)
        if isinstance(a, int) and isinstance(b, int):
            return a == b
        return Eq(_wrap(a), _wrap(b))
    if isinstance(f, Leq):
        a = _sub_term(f.left, L, env)
        b = _sub_term(f.right, L, env)
        if isinstance(a, int) and isinstance(b, int):
            return L.meet[a][b] == a
        return Leq(_wrap(a), _wrap(b))
    if isinstance(f, JPred):
        a = _sub_term(f.left, L, env)
        b = _sub_term(f.right, L, env)
        if isinstance(a, int) and isinstance(b, int):
            return L.join[a][b] == L.top
        return JPred(_wrap(a), _wrap(b))
    if isinstance(f, MPred):
        vals = [_sub_term(t, L, env) for t in f.terms]
        if all(isinstance(v, int) for v in vals):
            acc = vals[0]
            for v in vals[1:]:
                acc = L.meet[acc][v]
            return acc == L.bottom
        return MPred(tuple(_wrap(v) for v in vals))
    if isinstance(f, Not):
        s = _partial(f.body, L, env)
        return (not s) if isinstance(s, bool) else Not(s)
    if isinstance(f, And):
        a = _partial(f.left, L, env)
        if a is False:
            return False
        b = _partial(f.right, L, env)
        if b is False:
            return False
        if a is True:
            return b
        if b is True:
            return a
        return And(a, b)
    if isinstance(f, Or):
        a = _partial(f.left, L, env)
        if a is True:
            return True
        b = _partial(f.right, L, env)
        if b is True:
            return True
        if a is False:
            return b
        if b is False:
            return a
        return Or(a, b)
    if isinstance(f, Implies):
        a = _partial(f.left, L, env)
        if a is False:
            return True
        b = _partial(f.right, L, env)
        if a is True:
            return b
        if b is True:
            return True
        if b is False:
            return Not(a)
        return Implies(a, b)
    if isinstance(f, (Forall, Exists)):
        if f.var in env:
            env = {k: v for k, v in env.items() if k != f.var}
        s = _partial(f.body, L, env)
        if isinstance(s, bool):
            return s  # lattices are nonempty, so the quantifier is vacuous
        return type(f)(f.var, s)
    raise TypeError(f"not a formula: {f!r}")


def _expand(f, L):
    """Decide a residual formula with no free names by quantifier expansion."""
    if isinstance(f, bool):
        return f
    if isinstance(f, (Forall, Exists)):
        want_witness = isinstance(f, Exists)
        for val in range(L.n):
            s = _partial(f.body, L, {f.var: val})
            if _expand(s, L) is want_witness:
                return want_witness
        return not want_witness
    if isinstance(f, Not):
        return not _expand(f.body, L)
    if isinstance(f, And):
        return _expand(f.left, L) and _expand(f.right, L)
    if isinstance(f, Or):
        return _expand(f.left, L) or _expand(f.right, L)
    if isinstance(f, Implies):
        return (not _expand(f.left, L)) or _expand(f.right, L)
    raise TypeError(f"residual atom with no bound value: {f!r}")


def eval_formula(L, sentence, constant_interpretation=None):
    """Tarskian truth over all of L; raises on unbound names."""
    interp = dict(constant_interpretation or {})
    for name in sorted(constant_names(sentence)):
        if name not in interp:
            raise MissingConstant(name)
    for name in sorted(free_variables(sentence)):
        if name not in interp:
            raise UnboundVariable(name)
    return _expand(_partial(sentence, L, interp), L)

# ---------------------------------------------------------------- builtins


def _conj(*formulas):
    out = formulas[0]
    for f in formulas[1:]:
        out = And(out, f)
    return out


def _meets(*terms):
    out = terms[0]
    for t in terms[1:]:
        out = Meet(out, t)
    return out


def _joins(*terms):
    out = terms[0]
    for t in terms[1:]:
        out = Join(out, t)
    return out


def builtin_normality():
    """Every disjoint pair separates: the represented space is Hausdorff."""
    x, y, u, v = Var("x"), Var("y"), Var("u"), Var("v")
    matrix = Implies(
        Eq(Meet(x, y), BOT),
        _conj(Eq(Meet(x, u), BOT), Eq(Meet(y, v), BOT), Eq(Join(u, v), TOP)),
    )
    return Forall("x", Forall("y", Exists("u", Exists("v", matrix))))


def builtin_conn(a=TOP):
    """No nontrivial complemented splitting of a (connectedness of a)."""
    x, y = Var("x"), Var("y")
    matrix = Implies(
        And(Eq(Meet(x, y), BOT), Eq(Join(x, y), a)),
        Or(Eq(x, BOT), Eq(x, a)),
    )
    return Forall("x", Forall("y", matrix))


def builtin_HI():
    """A chicane for every pliand foursome: hereditary indecomposability."""
    x, y, u, v = Var("x"), Var("y"), Var("u"), Var("v")
    z1, z2, z3 = Var("z1"), Var("z2"), Var("z3")
    matrix = Implies(
        _conj(Eq(Meet(x, y), BOT), Eq(Meet(x, u), BOT), Eq(Meet(y, v), BOT)),
        _conj(
            Eq(Meet(x, Join(z2, z3)), BOT),
            Eq(Meet(y, Join(z1, z2)), BOT),
            Eq(Meet(z1, z3), BOT),
            Eq(_meets(z1, z2, v), BOT),
            Eq(_meets(z2, z3, u), BOT),
            Eq(_joins(z1, z2, z3), TOP),
        ),
    )
    out = Exists("z1", Exists("z2", Exists("z3", matrix)))
    for name in ("v", "u", "y", "x"):
        out = Forall(name, out)
    return out


def builtin_dim_le1():
    """Two disjoint pairs admit partitions meeting in the empty set: dim <= 1."""
    x0, y0, x1, y1 = Var("x0"), Var("y0"), Var("x1"), Var("y1")
    u0, v0, u1, v1 = Var("u0"), Var("v0"), Var("u1"), Var("v1")
    matrix = Implies(
        And(Eq(Meet(x0, y0), BOT), Eq(Meet(x1, y1), BOT)),
        _conj(
            Eq(Meet(x0, u0), BOT),
            Eq(Meet(y0, v0), BOT),
            Eq(Meet(x1, u1), BOT),
            Eq(Meet(y1, v1), BOT),
            Eq(Join(u0, v0), TOP),
            Eq(Join(u1, v1), TOP),
            Eq(_meets(u0, v0, u1, v1), BOT),
        ),
    )
    out = matrix
    for name in ("v1", "u1", "v0", "u0"):
        out = Exists(name, out)
    for name in ("y1", "x1", "y0", "x0"):
        out = Forall(name, out)
    return out


def builtin_distributive():
    x, y, z = Var("x"), Var("y"), Var("z")
    body = Eq(Meet(x, Join(y, z)), Join(Meet(x, y), Meet(x, z)))
    return Forall("x", Forall("y", Forall("z", body)))


def builtin_disjunctive():
    x, y, c = Var("x"), Var("y"), Var("c")
    matrix = Implies(
        Not(Leq(x, y)),
        Exists(
            "c",
            _conj(Not(Eq(c, BOT)), Leq(c, x), Eq(Meet(c, y), BOT)),
        ),
    )
    return Forall("x", Forall("y", matrix))

# ---------------------------------------------------------------- diagrams


def diagram(L, named_elements):
    """Atomic theory of the named elements; satisfiable iff embeddable.

    named_elements: mapping or (name, element) pairs.  Sentences: every meet
    and join fact whose result is named, a (dis)equality per name pair, and
    identifications with 0/1 for named bounds.
    """
    if not isinstance(named_elements, dict):
        pairs = list(named_elements)
        names_only = [nm for nm, _ in pairs]
        if len(set(names_only)) != len(names_only):
            dup = next(nm for nm in names_only if names_only.count(nm) > 1)
            raise DuplicateName(dup)
        named_elements = dict(pairs)
    items = sorted(named_elements.items())
    by_element = {}
    for nm, el in items:
        by_element.setdefault(el, nm)
    sentences = []
    for nm1, el1 in items:
        for nm2, el2 in items:
            m = L.meet[el1][el2]
            if m in by_element:
                sentences.append(Eq(Meet(Const(nm1), Const(nm2)), Const(by_element[m])))
            j = L.join[el1][el2]
            if j in by_element:
                sentences.append(Eq(Join(Const(nm1), Const(nm2)), Const(by_element[j])))
    for i, (nm1, el1) in enumerate(items):
        for nm2, el2 in items[i + 1 :]:
            fact = Eq(Const(nm1), Const(nm2))
            sentences.append(fact if el1 == el2 else Not(fact))
    for nm, el in items:
        if el == L.bottom:
            sentences.append(Eq(Const(nm), BOT))
        if el == L.top:
            sentences.append(Eq(Const(nm), TOP))
    return Theory(tuple(nm for nm, _ in items), tuple(sentences))


def theory_holds(L, theory, interpretation):
    """All sentences of the theory true under the interpretation."""
    return all(eval_formula(L, s, interpretation) for s in theory.sentences)
