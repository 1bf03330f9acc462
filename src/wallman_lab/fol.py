"""First-order lattice language: AST, parser, printer, evaluator, builtins.

The evaluator compiles a sentence once and then only runs closures:
`compile_sentence` resolves every constant and variable to a slot of one
list, puts the sentence in negation normal form, pushes each quantifier as
far in as it goes (miniscoping, so an atom is tested at the outermost
quantifier that binds all its variables), and returns a `Compiled` whose
`bind(L)` gives nested closures over L's tables.  `eval_formula` is compile
and run, reusing the last 256 compiled (sentence, names) pairs; the model
finder binds each compiled sentence once per lattice.

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
from operator import is_, itemgetter
from typing import NamedTuple

from .errors import (
    DuplicateName,
    FormulaSyntaxError,
    MissingConstant,
    UnboundVariable,
)
from .lattice import _check_elements, _kept_hash

# ---------------------------------------------------------------- AST


@_kept_hash
class Var:
    name: str


@_kept_hash
class Const:
    name: str


@_kept_hash
class Bottom:
    pass


@_kept_hash
class Top:
    pass


@_kept_hash
class Meet:
    left: object
    right: object


@_kept_hash
class Join:
    left: object
    right: object


@_kept_hash
class Eq:
    left: object
    right: object


@_kept_hash
class Leq:
    """Sugar: s <= t means s ^ t = s."""

    left: object
    right: object


@_kept_hash
class JPred:
    """J(s, t): the join of s and t is the top element."""

    left: object
    right: object


@_kept_hash
class MPred:
    """M(t1, ..., tn): the meet of the arguments is the bottom element."""

    terms: tuple


@_kept_hash
class Not:
    body: object


@_kept_hash
class And:
    left: object
    right: object


@_kept_hash
class Or:
    left: object
    right: object


@_kept_hash
class Implies:
    left: object
    right: object


@_kept_hash
class Forall:
    var: str
    body: object


@_kept_hash
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

_BINARY = (Meet, Join, Eq, Leq, JPred, And, Or, Implies)


def _walk(node, leaf, bound=frozenset()):
    """node with each Var and Const t replaced by leaf(t, bound), where bound
    holds the names of the quantifiers above t.  A subtree in which no leaf
    changed is returned itself, so a walk that changes nothing copies nothing."""
    if isinstance(node, (Var, Const)):
        return leaf(node, bound)
    if isinstance(node, (Bottom, Top)):
        return node
    if isinstance(node, _BINARY):
        left, right = _walk(node.left, leaf, bound), _walk(node.right, leaf, bound)
        return node if left is node.left and right is node.right else type(node)(left, right)
    if isinstance(node, MPred):
        terms = tuple(_walk(t, leaf, bound) for t in node.terms)
        return node if all(map(is_, terms, node.terms)) else MPred(terms)
    if isinstance(node, Not):
        body = _walk(node.body, leaf, bound)
        return node if body is node.body else Not(body)
    if isinstance(node, (Forall, Exists)):
        body = _walk(node.body, leaf, bound | {node.var})
        return node if body is node.body else type(node)(node.var, body)
    raise TypeError(f"not a formula or term: {node!r}")


def _names_of(f, kind):
    """Names of the kind (Var: free ones only) that f mentions."""
    out = set()

    def leaf(t, bound):
        if isinstance(t, kind) and not (kind is Var and t.name in bound):
            out.add(t.name)
        return t

    _walk(f, leaf)
    return frozenset(out)


def free_variables(f):
    """Free variable names of a formula or term (constants excluded)."""
    return _names_of(f, Var)


def constant_names(f):
    return _names_of(f, Const)


def bind_constants(f, names):
    """Turn free variables whose names appear in `names` into constants."""
    names = frozenset(names)

    def leaf(t, bound):
        return Const(t.name) if isinstance(t, Var) and t.name in names and t.name not in bound else t

    return _walk(f, leaf)

# ---------------------------------------------------------------- evaluator
#
# A sentence is compiled once against a list of names, in three steps.
#
# 1. Resolve.  Each name gets a slot of one flat list: the listed names
#    first, in order, then a fresh slot per binder, so a binder that reuses
#    a constant's or an outer variable's name shadows nothing but that
#    variable.  Leq, J and M become equations; the bounds fold away where
#    they absorb or vanish (x ^ 0 = 0, x v 0 = x), and an equation between
#    identical terms, or between 0 and 1, becomes a truth value.
# 2. Normalize.  Negations move onto the atoms (negation normal form),
#    an implication A -> C becomes !A | C (which curries a conjunctive
#    antecedent), and chains of & and | flatten.  Each quantifier is then
#    pushed in as far as it goes (miniscoping): out of its scope go the
#    conjuncts or disjuncts that do not mention its variable, an A
#    distributes over &, an E over |.  Lattices are nonempty, so all these
#    steps keep the truth value.  Every atom is thereby tested at the
#    outermost quantifier where all its variables are bound, and the
#    quantifier-free parts of a conjunction or disjunction are tested first.
# 3. Bind.  `Compiled.bind(L)` turns the normal form into nested closures
#    over L's meet and join tables, its bounds and its size, which read and
#    write the slot list.


class _Node(NamedTuple):
    """Normal-form formula.  kind "eq"/"ne": args = (term, term), the bound,
    if any, on the right; "and"/"or": args = the parts; "all"/"ex": args =
    (slot, body).  fv: the slots it reads.  A term is "0", "1", a slot
    number, or (op, term, term) with op "meet" or "join" and no bound inside.
    """

    kind: str
    fv: frozenset
    args: tuple


_BOUNDS = {"0": "bottom", "1": "top"}


def _term_slots(t):
    if isinstance(t, int):
        return frozenset((t,))
    if isinstance(t, tuple):
        return _term_slots(t[1]) | _term_slots(t[2])
    return frozenset()


def _fold(op, a, b):
    """op(a, b) with the bounds folded away."""
    absorbing, neutral = ("0", "1") if op == "meet" else ("1", "0")
    if absorbing in (a, b):
        return absorbing
    if a == neutral:
        return b
    if b == neutral:
        return a
    return (op, a, b)


def _atom(a, b, positive):
    """The literal a = b, or its negation; a truth value when it is fixed."""
    if a == b:
        return positive
    if a in _BOUNDS and b in _BOUNDS:
        return not positive  # 0 != 1 in every bounded lattice here
    if a in _BOUNDS:
        a, b = b, a
    return _Node("eq" if positive else "ne", _term_slots(a) | _term_slots(b), (a, b))


def _quantified(f):
    return f.kind in ("all", "ex") or (f.kind in ("and", "or") and any(map(_quantified, f.args)))


def _junction(kind, parts):
    """Flattened "and"/"or" of parts (nodes or truth values), its
    quantifier-free parts first."""
    unit = kind == "and"
    flat = []
    for p in parts:
        if p is unit:
            continue
        if isinstance(p, bool):
            return p
        flat.extend(p.args if p.kind == kind else (p,))
    if not flat:
        return unit
    if len(flat) == 1:
        return flat[0]
    flat.sort(key=_quantified)
    return _Node(kind, frozenset().union(*(p.fv for p in flat)), tuple(flat))


def _quantify(kind, slot, body):
    """Quantifier kind ("all"/"ex") over slot, pushed into body as far as it goes."""
    if isinstance(body, bool) or slot not in body.fv:
        return body  # lattices are nonempty, so the quantifier is vacuous
    spreads = "and" if kind == "all" else "or"
    if body.kind == spreads:
        return _junction(spreads, [_quantify(kind, slot, p) for p in body.args])
    if body.kind in ("and", "or"):
        outside = [p for p in body.args if slot not in p.fv]
        if outside:
            inside = _junction(body.kind, [p for p in body.args if slot in p.fv])
            return _junction(body.kind, outside + [_quantify(kind, slot, inside)])
    return _Node(kind, body.fv - {slot}, (slot, body))


class _Resolve:
    """The slots of one sentence's names, and what resolving it finds."""

    def __init__(self, names):
        self.index = {nm: i for i, nm in enumerate(names)}
        self.missing = {Const: set(), Var: set()}
        self.width = len(self.index)  # slots handed out so far
        self.depth = 0  # 1 + the highest listed slot mentioned


def _name(t, scope, rs):
    slot = scope.get(t.name) if isinstance(t, Var) else None
    if slot is None:
        slot = rs.index.get(t.name)
        if slot is None:
            rs.missing[type(t)].add(t.name)
            return "0"
        rs.depth = max(rs.depth, slot + 1)
    return slot


def _term(t, scope, rs):
    if isinstance(t, (Var, Const)):
        return _name(t, scope, rs)
    if isinstance(t, Bottom):
        return "0"
    if isinstance(t, Top):
        return "1"
    if isinstance(t, Meet):
        return _fold("meet", _term(t.left, scope, rs), _term(t.right, scope, rs))
    if isinstance(t, Join):
        return _fold("join", _term(t.left, scope, rs), _term(t.right, scope, rs))
    raise TypeError(f"not a term: {t!r}")


def _formula(f, positive, scope, rs):
    if isinstance(f, Eq):
        return _atom(_term(f.left, scope, rs), _term(f.right, scope, rs), positive)
    if isinstance(f, Leq):
        a = _term(f.left, scope, rs)
        return _atom(_fold("meet", a, _term(f.right, scope, rs)), a, positive)
    if isinstance(f, JPred):
        return _atom(_fold("join", _term(f.left, scope, rs), _term(f.right, scope, rs)), "1", positive)
    if isinstance(f, MPred):
        acc = _term(f.terms[0], scope, rs)
        for t in f.terms[1:]:
            acc = _fold("meet", acc, _term(t, scope, rs))
        return _atom(acc, "0", positive)
    if isinstance(f, Not):
        return _formula(f.body, not positive, scope, rs)
    if isinstance(f, (And, Or, Implies)):
        conj = isinstance(f, And) == positive
        left = _formula(f.left, positive != isinstance(f, Implies), scope, rs)
        return _junction("and" if conj else "or", [left, _formula(f.right, positive, scope, rs)])
    if isinstance(f, (Forall, Exists)):
        slot = rs.width
        rs.width += 1
        body = _formula(f.body, positive, {**scope, f.var: slot}, rs)
        return _quantify("all" if isinstance(f, Forall) == positive else "ex", slot, body)
    raise TypeError(f"not a formula: {f!r}")


def _normal_form(sentence, names):
    """(normal form, 1 + highest name slot mentioned, slot count); the slots
    are one per distinct name, then one per Forall or Exists node."""
    rs = _Resolve(names)
    out = _formula(sentence, True, {}, rs)
    if rs.missing[Const]:
        raise MissingConstant(min(rs.missing[Const]))
    if rs.missing[Var]:
        raise UnboundVariable(min(rs.missing[Var]))
    return out, rs.depth, rs.width


def _term_maker(t):
    """make(L) -> get, with get(s) the value of term t (not a bound) under
    slot list s."""
    if isinstance(t, int):
        return lambda L: itemgetter(t)
    op, a, b = t
    if isinstance(a, int) and isinstance(b, int):
        def make(L):
            T = getattr(L, op)
            return lambda s: T[s[a]][s[b]]

        return make
    ma, mb = _term_maker(a), _term_maker(b)

    def make(L):
        T, ga, gb = getattr(L, op), ma(L), mb(L)
        return lambda s: T[ga(s)][gb(s)]

    return make


def _atom_maker(f):
    a, b = f.args
    eq = f.kind == "eq"
    if b in _BOUNDS:
        bound = _BOUNDS[b]
        if isinstance(a, int):
            def make(L):
                c = getattr(L, bound)
                return (lambda s: s[a] == c) if eq else (lambda s: s[a] != c)
        elif isinstance(a[1], int) and isinstance(a[2], int):
            op, i, j = a

            def make(L):
                T, c = getattr(L, op), getattr(L, bound)
                return (lambda s: T[s[i]][s[j]] == c) if eq else (lambda s: T[s[i]][s[j]] != c)
        else:
            ma = _term_maker(a)

            def make(L):
                ga, c = ma(L), getattr(L, bound)
                return (lambda s: ga(s) == c) if eq else (lambda s: ga(s) != c)
        return make
    if isinstance(a, int) and isinstance(b, int):
        return lambda L: (lambda s: s[a] == s[b]) if eq else (lambda s: s[a] != s[b])
    ma, mb = _term_maker(a), _term_maker(b)

    def make(L):
        ga, gb = ma(L), mb(L)
        return (lambda s: ga(s) == gb(s)) if eq else (lambda s: ga(s) != gb(s))

    return make


def _junction_maker(f):
    makers = [_maker(p) for p in f.args]
    conj = f.kind == "and"

    def make(L):
        tests = [m(L) for m in makers]
        if len(tests) == 2:
            t1, t2 = tests
            return (lambda s: t1(s) and t2(s)) if conj else (lambda s: t1(s) or t2(s))

        def test(s):
            for t in tests:
                if t(s) is not conj:
                    return not conj
            return conj

        return test

    return make


def _quantifier_maker(f):
    slot, body = f.args
    universal = f.kind == "all"
    # after miniscoping the body of an A is never an "and", nor that of an E
    # an "or"; when it is the other junction the loop tests its parts itself,
    # one call fewer per element
    parts = body.args if body.kind == ("or" if universal else "and") else (body,)
    makers = [_maker(p) for p in parts]

    def make(L):
        tests, domain = [m(L) for m in makers], range(L.n)

        def run(s):
            for v in domain:
                s[slot] = v
                for test in tests:
                    if test(s) is universal:
                        break  # this element satisfies the body (A) or fails it (E)
                else:
                    return not universal
            return universal

        return run

    return make


def _maker(f):
    """make(L) -> test, with test(s) the truth of normal form f under slot list s."""
    if isinstance(f, bool):
        return lambda L: (lambda s: f)
    if f.kind in ("eq", "ne"):
        return _atom_maker(f)
    if f.kind in ("and", "or"):
        return _junction_maker(f)
    return _quantifier_maker(f)


class Compiled(NamedTuple):
    """A sentence compiled against a list of names.

    depth: 1 + the highest slot of a listed name it mentions (0 for none);
    width: the length of slot list it needs, the names' slots first;
    bind: bind(L) -> test, with test(slots) its truth in L.
    """

    depth: int
    width: int
    bind: object


def compile_sentence(sentence, names):
    """Compile once; each name in `names` is a constant or a free variable.

    Raises MissingConstant or UnboundVariable (the least such name) when the
    sentence mentions a name that is neither listed nor bound.
    """
    normal, depth, width = _normal_form(sentence, names)
    return Compiled(depth, width, _maker(normal))


# a raising compile is not cached, so every call with a bad name raises
_compiled = lru_cache(maxsize=256)(compile_sentence)


def eval_formula(L, sentence, constant_interpretation=None):
    """Tarskian truth over all of L; raises on unbound names."""
    interp = dict(constant_interpretation or {})
    _check_elements(L, interp.values())
    compiled = _compiled(sentence, tuple(interp))
    slots = list(interp.values()) + [0] * (compiled.width - len(interp))
    return compiled.bind(L)(slots)

# ---------------------------------------------------------------- builtins
#
# Each builtin is a fixed text, parsed on its first call (builtin_conn: once
# for each term a); every later call returns the same tree.


@lru_cache(maxsize=1)
def builtin_normality():
    """Every disjoint pair separates: the represented space is Hausdorff."""
    return parse("A x. A y. E u. E v. (x ^ y = 0 -> x ^ u = 0 & y ^ v = 0 & u v v = 1)")


@lru_cache(maxsize=None)
def builtin_conn(a=TOP):
    """No nontrivial complemented splitting of a (connectedness of a)."""
    sentence = parse("A x. A y. (x ^ y = 0 & x v y = a -> x = 0 | x = a)")
    return _walk(sentence, lambda t, bound: a if t.name == "a" else t)


@lru_cache(maxsize=1)
def builtin_HI():
    """A chicane for every pliand foursome: hereditary indecomposability."""
    return parse(
        "A x. A y. A u. A v. E z1. E z2. E z3. (x ^ y = 0 & x ^ u = 0 & y ^ v = 0"
        " -> x ^ (z2 v z3) = 0 & y ^ (z1 v z2) = 0 & z1 ^ z3 = 0"
        " & z1 ^ z2 ^ v = 0 & z2 ^ z3 ^ u = 0 & z1 v z2 v z3 = 1)"
    )


@lru_cache(maxsize=1)
def builtin_dim_le1():
    """Two disjoint pairs admit partitions meeting in the empty set: dim <= 1."""
    return parse(
        "A x0. A y0. A x1. A y1. E u0. E v0. E u1. E v1. (x0 ^ y0 = 0 & x1 ^ y1 = 0"
        " -> x0 ^ u0 = 0 & y0 ^ v0 = 0 & x1 ^ u1 = 0 & y1 ^ v1 = 0"
        " & u0 v v0 = 1 & u1 v v1 = 1 & u0 ^ v0 ^ u1 ^ v1 = 0)"
    )


@lru_cache(maxsize=1)
def builtin_distributive():
    return parse("A x. A y. A z. x ^ (y v z) = (x ^ y) v (x ^ z)")


@lru_cache(maxsize=1)
def builtin_disjunctive():
    return parse("A x. A y. (!(x <= y) -> E c. !(c = 0) & c <= x & c ^ y = 0)")

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
    _check_elements(L, named_elements.values())
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
