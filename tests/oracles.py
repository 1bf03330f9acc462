"""Brute-force oracles for the tests, meant only for very small inputs:
every labeled lattice on n elements, an exhaustive search over point maps
set against `find_L_morphism`, the plain pebble game that `ef` refines,
the backtracking core as it was when its domains were lists, and on it the
two `homsearch` searches without forward checking and the poset-isomorphism
search with one index list per profile, the `intervals`
operations and `satisfies_dim_le1` as they were before integer keys,
`all_spaces` as it was before the pruned search, the `fol` builtins and
`kappa_constants_theory` as they were built before they were written as
text, the lattice predicates, Wallman helpers and Hasse diagram as they
read the tables before they read `lattice._masks`, the lattice
constructors as they built their tables before `lattice._table`, the
four point maps through a base as they were before `spaces._point_map`,
the formula parser and printer as they were before they read one
precedence table, the compiled evaluator as it was before its quantifier
nodes kept memos, and `stone_space` as it was when it built the lattice's
masks in each helper it called.
"""

import re
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

from wallman_lab.ef import SpoilerStrategy
from wallman_lab.fol import (
    BOT,
    TOP,
    And,
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
    Top,
    Var,
    Compiled,
    _BOUNDS,
    _normal_form,
    _tokenize,
)
from wallman_lab.homsearch import LMorphism, _valid_base, find_L_morphism
from wallman_lab.enumeration import _profile, _up_masks
from wallman_lab.errors import (
    FormulaSyntaxError,
    NonCanonicalInput,
    NonSingletonFiber,
    NotABase,
    NotApplicable,
    NotBoolean,
    NotDisjoint,
    NotDistributive,
    PostconditionFailed,
)
from wallman_lab.lattice import Poset, _bits, _by_size, _masks, is_distributive, validate
from wallman_lab.spaces import (
    FiniteSpace,
    _fiber_point,
    _is_lattice_family,
    _meet_above,
    _preimage_mask,
    closed_set_lattice,
    is_continuous,
    is_surjective,
    mask_of,
)
from wallman_lab.wallman import (
    Filter,
    atoms,
    boolean_subalgebra_generated,
    is_boolean,
    stone_space,
    ultrafilters,
    wallman_space,
)


def all_labeled_lattices(n):
    """Naive oracle: every labeled bounded lattice on {0..n-1}, duplicates included.

    Brute force over all order matrices; intended only for cross-checks at
    very small n.
    """
    out = []
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    for mask in range(1 << len(pairs)):
        le = [[a == b for b in range(n)] for a in range(n)]
        for i, (a, b) in enumerate(pairs):
            if mask >> i & 1:
                le[a][b] = True
        ok = True
        for a in range(n):
            for b in range(n):
                if a != b and le[a][b] and le[b][a]:
                    ok = False
                    break
                if le[a][b]:
                    for c in range(n):
                        if le[b][c] and not le[a][c]:
                            ok = False
                            break
                if not ok:
                    break
            if not ok:
                break
        if not ok:
            continue
        bots = [a for a in range(n) if all(le[a][b] for b in range(n))]
        tops = [a for a in range(n) if all(le[b][a] for b in range(n))]
        if len(bots) != 1 or len(tops) != 1 or bots[0] == tops[0]:
            continue
        meet = [[None] * n for _ in range(n)]
        join = [[None] * n for _ in range(n)]
        lattice = True
        for a in range(n):
            for b in range(n):
                lower = [c for c in range(n) if le[c][a] and le[c][b]]
                glb = [c for c in lower if all(le[d][c] for d in lower)]
                upper = [c for c in range(n) if le[a][c] and le[b][c]]
                lub = [c for c in upper if all(le[c][d] for d in upper)]
                if len(glb) != 1 or len(lub) != 1:
                    lattice = False
                    break
                meet[a][b] = glb[0]
                join[a][b] = lub[0]
            if not lattice:
                break
        if not lattice:
            continue
        names = tuple(f"e{i}" for i in range(n))
        out.append(validate(names, meet, join, bots[0], tops[0]))
    return out


def oracle_surjection_equivalence(X, Y, base=None):
    """Exhaustive map search versus morphism search; they must agree for
    discrete spaces."""
    if base is None:
        base = Y.closed_sorted()
    oracle = False
    maps = [[]]
    for _ in range(X.point_count):
        maps = [m + [y] for m in maps for y in range(Y.point_count)]
    for f in maps:
        if is_surjective(f, X, Y) and is_continuous(f, X, Y):
            oracle = True
            break
    morphism = find_L_morphism(Y, base, X) is not None
    return {"oracle": oracle, "morphism": morphism, "agree": oracle == morphism}


# ---------------------------------------------------------------- pebble game
# The game as `ef` played it before its replies were forward-checked: every
# reply is built as a set of pairs and checked against every triple of
# pebbles.  The replies are tried in index order, and no isomorphism is used.


def reference_consistent(A, B, pairs):
    """Do the pebbled tuples satisfy the same atomic formulas?  O(k^3)."""
    items = list(pairs)
    for a1, b1 in items:
        for a2, b2 in items:
            if (a1 == a2) != (b1 == b2):
                return False
            ma, mb = A.meet[a1][a2], B.meet[b1][b2]
            ja, jb = A.join[a1][a2], B.join[b1][b2]
            for a3, b3 in items:
                if (ma == a3) != (mb == b3) or (ja == a3) != (jb == b3):
                    return False
    return True


def reference_ef_equivalent(A, B, rounds):
    """(True, None) or (False, SpoilerStrategy), as `ef.ef_equivalent`."""
    rounds = min(rounds, min(A.n, B.n) + 1)
    memo = {}
    start = frozenset(((A.bottom, B.bottom), (A.top, B.top)))
    if _reference_wins(A, B, memo, start, rounds):
        return True, None
    return False, _reference_extract(A, B, memo, start, rounds)


def _reference_wins(A, B, memo, pairs, k):
    key = (pairs, k)
    if key not in memo:
        memo[key] = reference_consistent(A, B, pairs) and (k == 0 or _reference_move(A, B, memo, pairs, k) is None)
    return memo[key]


def _reference_move(A, B, memo, pairs, k):
    for a in range(A.n):
        if not any(_reference_wins(A, B, memo, pairs | {(a, b)}, k - 1) for b in range(B.n)):
            return "A", a
    for b in range(B.n):
        if not any(_reference_wins(A, B, memo, pairs | {(a, b)}, k - 1) for a in range(A.n)):
            return "B", b
    return None


def _reference_extract(A, B, memo, pairs, k):
    if not reference_consistent(A, B, pairs):
        return None
    side, e = _reference_move(A, B, memo, pairs, k)
    replies = [pairs | {(e, b)} for b in range(B.n)] if side == "A" else [pairs | {(a, e)} for a in range(A.n)]
    return SpoilerStrategy(side, e, tuple(_reference_extract(A, B, memo, reply, k - 1) for reply in replies))


def reference_atomic_separator(A, B, pebbles_a, pebbles_b):
    """The first atomic sentence, in the triple-scan order, true in A and false in B."""
    terms = [(BOT, A.bottom, B.bottom), (TOP, A.top, B.top)]
    for i, (a, b) in enumerate(zip(pebbles_a, pebbles_b)):
        terms.append((Var(f"p{i}"), a, b))
    for t1, a1, b1 in terms:
        for t2, a2, b2 in terms:
            if (a1 == a2) != (b1 == b2):
                phi = Eq(t1, t2)
                return phi if a1 == a2 else Not(phi)
            for t3, a3, b3 in terms:
                if (A.meet[a1][a2] == a3) != (B.meet[b1][b2] == b3):
                    phi = Eq(Meet(t1, t2), t3)
                    return phi if A.meet[a1][a2] == a3 else Not(phi)
                if (A.join[a1][a2] == a3) != (B.join[b1][b2] == b3):
                    phi = Eq(Join(t1, t2), t3)
                    return phi if A.join[a1][a2] == a3 else Not(phi)
    raise AssertionError("pebbled tuples are atomically equivalent")


def reference_sentence(A, B, strat, pebbles_a=(), pebbles_b=()):
    """The separating sentence of a strategy, unchecked, built as `ef` builds it."""
    if strat is None:
        return reference_atomic_separator(A, B, list(pebbles_a), list(pebbles_b))
    subs = []
    for reply, sub in enumerate(strat.responses):
        if strat.side == "A":
            s = reference_sentence(A, B, sub, (*pebbles_a, strat.element), (*pebbles_b, reply))
        else:
            s = reference_sentence(A, B, sub, (*pebbles_a, reply), (*pebbles_b, strat.element))
        if s not in subs:
            subs.append(s)
    connective, quantifier = (And, Exists) if strat.side == "A" else (Or, Forall)
    body = subs[0]
    for s in subs[1:]:
        body = connective(body, s)
    return quantifier(f"p{len(pebbles_a)}", body)


# ---------------------------------------------------------------- backtracking
# The shared core as it ran when its domains were lists.  The reference
# searches below and in `unfiltered_search` run on this loop, so they share
# no search code with the package searches they are checked against.


def plain_first_assignment(domains, step, state):
    """The first assignment of values to the variables 0..k-1, each trying
    the values of the list domains[i] in order, or None.  step is as for
    `lattice._first_assignment`."""
    values = [None] * len(domains)
    return values if _plain_assign(0, domains, step, state, values) else None


def _plain_assign(i, domains, step, state, values):
    if i == len(domains):
        return True
    for value in domains[i]:
        values[i] = value
        nxt = step(i, value, values, state)
        if nxt is not None and _plain_assign(i + 1, domains, step, nxt, values):
            return True
    return False


# ---------------------------------------------------------------- homsearch
# The two searches as they ran on the shared core before forward checking:
# every candidate is tried, and each condition is checked once the last of
# its elements is assigned.


def plain_lattice_embedding(B, L):
    """`homsearch.find_lattice_embedding` without forward checking."""
    order = [B.bottom, B.top] + [e for e in B.elements() if e not in (B.bottom, B.top)]
    pos = {e: i for i, e in enumerate(order)}
    checks = [[] for _ in order]  # checks[i]: (p, q, r, table) by position, last assigned at i
    for p in range(len(order)):
        for q in range(p + 1, len(order)):
            for table_b, table_l in ((B.meet, L.meet), (B.join, L.join)):
                r = pos[table_b[order[p]][order[q]]]
                checks[max(q, r)].append((p, q, r, table_l))

    def step(i, t, values, used):
        if used >> t & 1:
            return None
        for p, q, r, table in checks[i]:
            if table[values[p]][values[q]] != values[r]:
                return None
        return used | 1 << t

    domains = [[L.bottom], [L.top]] + [L.elements()] * (len(order) - 2)
    values = plain_first_assignment(domains, step, 0)
    return None if values is None else dict(zip(order, values))


def plain_L_morphism(Y, base, X):
    """`homsearch.find_L_morphism` without forward checking."""
    base = _valid_base(Y, tuple(base))[0]
    full_y, full_x = Y.full, X.full
    # partners[i]: the j <= i with base[j] | base[i] = Y; the empty set has none to check
    partners = [[j for j in range(i + 1) if b | base[j] == full_y] if b else [] for i, b in enumerate(base)]
    nonzero = [t for t in X.closed_sorted() if t]
    whole = [t for t in nonzero if t == full_x]  # [X], unless X has no points
    domains = [[0] if b == 0 else whole if b == full_y else nonzero for b in base]

    def step(i, t, values, meet_at):
        # meet_at[x]: the meet of the base sets assigned so far whose image holds x
        for j in partners[i]:
            if t | values[j] != full_x:
                return None
        b = base[i]
        meet_at = [m & b if t >> x & 1 else m for x, m in enumerate(meet_at)]
        return None if t and 0 in meet_at else meet_at

    values = plain_first_assignment(domains, step, [full_y] * X.point_count)
    return None if values is None else LMorphism(tuple(base), dict(zip(base, values)))


# ---------------------------------------------------------------- intervals
# The module as it was when every comparison was one of Fractions: the
# endpoints of each result are compared with `intervals`' on equal inputs.

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class ReferenceIntervalSet:
    intervals: tuple

    def __post_init__(self):
        prev_hi = None
        for lo, hi in self.intervals:
            if not (isinstance(lo, Fraction) and isinstance(hi, Fraction)):
                raise NonCanonicalInput("endpoints must be Fractions")
            if not (ZERO <= lo <= hi <= ONE):
                raise NonCanonicalInput(f"interval [{lo},{hi}] not inside [0,1]")
            if prev_hi is not None and lo <= prev_hi:
                raise NonCanonicalInput("intervals must be sorted and non-adjacent")
            prev_hi = hi

    def is_empty(self):
        return not self.intervals


def reference_riset(*pairs):
    ivs = sorted((Fraction(lo), Fraction(hi)) for lo, hi in pairs)
    for lo, hi in ivs:
        if lo > hi:
            raise NonCanonicalInput(f"empty interval [{lo},{hi}]")
    merged = []
    for lo, hi in ivs:
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return ReferenceIntervalSet(tuple((lo, hi) for lo, hi in merged))


def reference_top():
    return reference_riset((0, 1))


def reference_join(a, b):
    return reference_riset(*(a.intervals + b.intervals))


def reference_meet(a, b):
    out = []
    for lo1, hi1 in a.intervals:
        for lo2, hi2 in b.intervals:
            lo, hi = max(lo1, lo2), min(hi1, hi2)
            if lo <= hi:
                out.append((lo, hi))
    return reference_riset(*out)


def reference_difference_pieces(a, b):
    pieces = []
    for lo, hi in a.intervals:
        segments = [(lo, False, hi, False)]
        for blo, bhi in b.intervals:
            nxt = []
            for slo, so, shi, sh in segments:
                if bhi < slo or blo > shi:
                    nxt.append((slo, so, shi, sh))
                    continue
                if slo < blo:
                    nxt.append((slo, so, blo, True))
                if bhi < shi:
                    nxt.append((bhi, True, shi, sh))
            segments = nxt
        pieces.extend(s for s in segments if s[0] < s[2] or (s[0] == s[2] and not s[1] and not s[3]))
    return pieces


def reference_normality_witness(x, y):
    if not reference_meet(x, y).is_empty():
        raise NotDisjoint("x and y must have empty intersection")
    comps = sorted([(lo, hi, "x") for lo, hi in x.intervals] + [(lo, hi, "y") for lo, hi in y.intervals])
    cuts = [ZERO]
    for (lo1, hi1, t1), (lo2, hi2, t2) in zip(comps, comps[1:]):
        if t1 != t2:
            cuts.append((hi1 + lo2) / 2)
    cuts.append(ONE)
    u_parts, v_parts = [], []
    for a, b in zip(cuts, cuts[1:]):
        has_x = any(t == "x" and not (hi < a or lo > b) for lo, hi, t in comps)
        if has_x:
            v_parts.append((a, b))
        else:
            u_parts.append((a, b))
    u = reference_riset(*u_parts)
    v = reference_riset(*v_parts)
    if not (
        reference_meet(x, u).is_empty() and reference_meet(y, v).is_empty() and reference_join(u, v) == reference_top()
    ):
        raise PostconditionFailed("normality witness does not separate")
    return u, v


def reference_disjunctive_witness(a, b):
    if reference_meet(a, b) == a:
        raise NotApplicable("a <= b")
    for lo, lo_open, hi, hi_open in reference_difference_pieces(a, b):
        if lo == hi:
            c = reference_riset((lo, hi))
            break
        if lo < hi:
            quarter = (hi - lo) / 4
            clo = lo + quarter if lo_open else lo
            chi = hi - quarter if hi_open else hi
            c = reference_riset((clo, chi))
            break
    else:
        raise NotApplicable("no nonempty difference piece found")
    if c.is_empty() or reference_meet(c, a) != c or not reference_meet(c, b).is_empty():
        raise PostconditionFailed("disjunctive witness is not a nonempty part of a off b")
    return c


def reference_refute_partition(x, y):
    common = reference_meet(x, y)
    if not common.is_empty():
        return "meet-nonempty", common
    union = reference_join(x, y)
    if union != reference_top():
        return "join-not-top", reference_difference_pieces(reference_top(), union)[0]
    if x.is_empty():
        return "x-empty", x
    if y.is_empty():
        return "y-empty", y
    raise RuntimeError("unreachable: [0,1] cannot be split by closed sets")


# ---------------------------------------------------------------- dim <= 1


def frozen_dim_le1(L):
    """`lattice.satisfies_dim_le1` with its memo keyed by tuples."""
    meet = L.meet
    perp, cotop, _, _ = _masks(L)
    partitions = {}  # (perp[x], perp[y]) -> [(u, v, u^v)] in lexicographic order
    first = {}  # (w, key) -> the first (u, v) of key's partitions with u^v^w = 0, or None

    def partitions_of(key):
        if key not in partitions:
            px, py = key
            partitions[key] = [(u, v, meet[u][v]) for u in _bits(px) for v in _bits(py & cotop[u])]
        return partitions[key]

    def first_against(w, key):
        if (w, key) not in first:
            pw = perp[w]
            first[w, key] = next(((u, v) for u, v, m in partitions_of(key) if pw >> m & 1), None)
        return first[w, key]

    disjoint = [(x, y) for x in L.elements() for y in _bits(perp[x])]
    witnesses = {}
    for x0, y0 in disjoint:
        parts0 = partitions_of((perp[x0], perp[y0]))
        for x1, y1 in disjoint:
            key1 = (perp[x1], perp[y1])
            for u0, v0, w in parts0:
                hit = first_against(w, key1)
                if hit is not None:
                    witnesses[(x0, y0, x1, y1)] = (u0, v0) + hit
                    break
            else:
                return False, (x0, y0, x1, y1)
    return True, witnesses


def brute_force_spaces(n):
    """`all_spaces` before the pruned search: every subfamily of the proper
    masks, in order of `pick`, kept when it is closed under union and
    intersection."""
    full = (1 << n) - 1
    others = [m for m in range(1 << n) if m not in (0, full)]
    out = []
    for pick in range(1 << len(others)):
        fam = {0, full}
        fam.update(others[i] for i in range(len(others)) if pick >> i & 1)
        if _is_lattice_family(fam):
            out.append(FiniteSpace(n, frozenset(fam)))
    return tuple(out)


# ---------------------------------------------------------------- sentences
# The builtins and kappa(t) as they were put together from AST constructors.


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


def built_normality():
    x, y, u, v = Var("x"), Var("y"), Var("u"), Var("v")
    matrix = Implies(
        Eq(Meet(x, y), BOT),
        _conj(Eq(Meet(x, u), BOT), Eq(Meet(y, v), BOT), Eq(Join(u, v), TOP)),
    )
    return Forall("x", Forall("y", Exists("u", Exists("v", matrix))))


def built_conn(a=TOP):
    x, y = Var("x"), Var("y")
    matrix = Implies(
        And(Eq(Meet(x, y), BOT), Eq(Join(x, y), a)),
        Or(Eq(x, BOT), Eq(x, a)),
    )
    return Forall("x", Forall("y", matrix))


def built_HI():
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


def built_dim_le1():
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


def built_distributive():
    x, y, z = Var("x"), Var("y"), Var("z")
    body = Eq(Meet(x, Join(y, z)), Join(Meet(x, y), Meet(x, z)))
    return Forall("x", Forall("y", Forall("z", body)))


def built_disjunctive():
    x, y, c = Var("x"), Var("y"), Var("c")
    matrix = Implies(
        Not(Leq(x, y)),
        Exists(
            "c",
            _conj(Not(Eq(c, BOT)), Leq(c, x), Eq(Meet(c, y), BOT)),
        ),
    )
    return Forall("x", Forall("y", matrix))


def built_kappa_constants_theory(t):
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


# ---------------------------------------------------------------- per-element masks
# The readers of `lattice._masks` as they were when each built its own masks
# or walked `leq` element by element.


def frozen_two_masks(L):
    """`lattice._masks` when it built only (perp, cotop)."""
    bot, top = L.bottom, L.top
    perp = [sum(1 << y for y, m in enumerate(row) if m == bot) for row in L.meet]
    cotop = [sum(1 << y for y, j in enumerate(row) if j == top) for row in L.join]
    return perp, cotop


def frozen_is_normal(L):
    meet, join = L.meet, L.join
    bot, top = L.bottom, L.top
    witnesses = {}
    for x in L.elements():
        for y in L.elements():
            if meet[x][y] != bot:
                continue
            found = None
            for u in L.elements():
                if meet[x][u] != bot:
                    continue
                for v in L.elements():
                    if meet[y][v] == bot and join[u][v] == top:
                        found = (u, v)
                        break
                if found:
                    break
            if found is None:
                return False, (x, y)
            witnesses[(x, y)] = found
    return True, witnesses


def frozen_is_disjunctive(L):
    meet = L.meet
    bot = L.bottom
    for a in L.elements():
        for b in L.elements():
            if L.leq(a, b):
                continue
            ok = any(c != bot and meet[c][a] == c and meet[c][b] == bot for c in L.elements())
            if not ok:
                return False, (a, b)
    return True, None


def frozen_join_irreducibles(L):
    out = []
    for e in L.elements():
        if e == L.bottom:
            continue
        strictly_below = [a for a in L.elements() if a != e and L.leq(a, e)]
        acc = L.bottom
        for a in strictly_below:
            acc = L.join[acc][a]
        if acc != e:
            out.append(e)
    return out


def one_atom_per_component(L):
    """On a finite distributive lattice: does each connected component of
    the order on the join-irreducibles hold one minimal element, that is,
    one atom?  Components are joined over comparable pairs, read off the
    meet table; every component holds at least one minimal element, so the
    answer is whether no two minimal elements share a component."""
    irr = frozen_join_irreducibles(L)
    parent = {j: j for j in irr}

    def root(j):
        while parent[j] != j:
            j = parent[j]
        return j

    for a in irr:
        for b in irr:
            if L.leq(a, b):
                parent[root(a)] = root(b)
    roots = [root(j) for j in irr if not any(k != j and L.leq(k, j) for k in irr)]
    return len(roots) == len(set(roots))


def frozen_birkhoff_poset(L):
    ok, witness = is_distributive(L)
    if not ok:
        raise NotDistributive(f"witness triple {witness}")
    irr = frozen_join_irreducibles(L)
    return Poset(tuple(sum(L.leq(a, b) << i for i, a in enumerate(irr)) for b in irr)).validate()


def frozen_lattice_isomorphism(A, B):
    if A.n != B.n:
        return None
    down_a, down_b = ([sum(1 << b for b, m in enumerate(row) if m == b) for row in L.meet] for L in (A, B))
    prof_a, prof_b = (_profile(down, _up_masks(down)) for down in (down_a, down_b))
    if sorted(prof_a) != sorted(prof_b):
        return None
    mapping = frozen_poset_isomorphic(down_a, prof_a, down_b, prof_b)
    return None if mapping is None else dict(enumerate(mapping))


def frozen_poset_isomorphic(down_a, prof_a, down_b, prof_b):
    """`enumeration._poset_isomorphic` as it was with one index list per
    profile, on the plain loop."""
    by_profile = {}
    for j, p in enumerate(prof_b):
        by_profile.setdefault(p, []).append(j)

    def step(i, j, values, used):
        if used >> j & 1:
            return None
        da, db = down_a[i], down_b[j]
        for k in range(i):
            mk = values[k]
            if down_a[k] >> i & 1 != down_b[mk] >> j & 1 or da >> k & 1 != db >> mk & 1:
                return None
        return used | 1 << j

    return plain_first_assignment([by_profile.get(p, ()) for p in prof_a], step, 0)


def frozen_filters(L):
    ups = (frozenset(b for b in L.elements() if L.leq(a, b)) for a in L.elements() if a != L.bottom)
    return sorted(map(Filter, ups), key=lambda f: sorted(f.members))


def frozen_is_filter(L, members):
    if L.bottom in members or not members:
        return False
    for a in members:
        for b in members:
            if L.meet[a][b] not in members:
                return False
        for b in L.elements():
            if L.leq(a, b) and b not in members:
                return False
    return True


def _frozen_complement(L, a):
    return next((b for b in L.elements() if L.meet[a][b] == L.bottom and L.join[a][b] == L.top), None)


def frozen_is_boolean(L):
    ok, _ = is_distributive(L)
    if not ok:
        return False
    return all(_frozen_complement(L, a) is not None for a in L.elements())


def frozen_atoms(L):
    return [
        a
        for a in L.elements()
        if a != L.bottom and not any(b != L.bottom and b != a and L.leq(b, a) for b in L.elements())
    ]


def frozen_hasse_dot(L):
    """`cli.hasse_dot` before it escaped its labels; equal to it on names
    with no backslash or quote."""
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for i, name in enumerate(L.names):
        lines.append(f'  n{i} [label="{name}"];')
    for a in L.elements():
        for b in L.elements():
            if a == b or not L.leq(a, b):
                continue
            if any(c not in (a, b) and L.leq(a, c) and L.leq(c, b) for c in L.elements()):
                continue
            lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- lattice constructors
# `chain`, `powerset_lattice`, `diamond_m3` and `_mask_lattice` as they built
# their tables before they read them off masks with `lattice._table`.


def frozen_mask_lattice(family, prefix=""):
    members = _by_size(family)
    idx = {m: i for i, m in enumerate(members)}
    k = len(members)
    names = tuple(
        "{" + ",".join(f"{prefix}{b}" for b in range(m.bit_length()) if m >> b & 1) + "}"
        for m in members
    )
    meet = tuple(tuple(idx[members[i] & members[j]] for j in range(k)) for i in range(k))
    join = tuple(tuple(idx[members[i] | members[j]] for j in range(k)) for i in range(k))
    return validate(names, meet, join, 0, k - 1), members


def frozen_chain(k):
    names = tuple(f"c{i}" for i in range(k))
    meet = tuple(tuple(min(a, b) for b in range(k)) for a in range(k))
    join = tuple(tuple(max(a, b) for b in range(k)) for a in range(k))
    return validate(names, meet, join, 0, k - 1)


def frozen_powerset_lattice(k):
    n = 1 << k
    names = tuple("{" + ",".join(str(i) for i in range(k) if m >> i & 1) + "}" for m in range(n))
    meet = tuple(tuple(a & b for b in range(n)) for a in range(n))
    join = tuple(tuple(a | b for b in range(n)) for a in range(n))
    return validate(names, meet, join, 0, n - 1)


def frozen_diamond_m3():
    names = ("0", "a", "b", "c", "1")
    n = 5

    def mt(a, b):
        if a == b:
            return a
        if a == 0 or b == 0:
            return 0
        if a == 4:
            return b
        if b == 4:
            return a
        return 0

    def jn(a, b):
        if a == b:
            return a
        if a == 4 or b == 4:
            return 4
        if a == 0:
            return b
        if b == 0:
            return a
        return 4

    meet = tuple(tuple(mt(a, b) for b in range(n)) for a in range(n))
    join = tuple(tuple(jn(a, b) for b in range(n)) for a in range(n))
    return validate(names, meet, join, 0, 4)


# ---------------------------------------------------------------- point maps through a base
# The four constructions as they wrote out their point maps before
# `spaces._point_map`, and `wallman_space`'s base loop.  The embedding map
# still takes the lattice L and enumerates its ultrafilters itself.


def frozen_wallman_base(L):
    points = tuple(ultrafilters(L))
    base = []
    for a in L.elements():
        mask = 0
        for i, u in enumerate(points):
            if a in u:
                mask |= 1 << i
        base.append(mask)
    return tuple(base)


def frozen_surjection_from_embedding(base_sets, phi, L, X):
    points = ultrafilters(L)
    f = [
        _fiber_point(X.full, (c for i, c in enumerate(base_sets) if phi[i] in p.members))
        for p in points
    ]
    onto = set(f) == set(range(X.point_count))
    preimage_identity = all(
        _preimage_mask(f, c) == mask_of(k for k, p in enumerate(points) if phi[i] in p.members)
        for i, c in enumerate(base_sets)
    )
    report = {"onto": onto, "preimage_identity": preimage_identity}
    return f, report


def frozen_surjection_from_morphism(Y, phi, X):
    base = list(phi.base)
    f = [
        _fiber_point(Y.full, (b for b in base if phi.assignment[b] >> x & 1))
        for x in range(X.point_count)
    ]
    continuous = is_continuous(f, X, Y)
    onto = is_surjective(f, X, Y)
    interiors = [Y.interior(b) for b in base]
    identity_ok = True
    for c in Y.closed:
        rhs = X.full
        for b, inner in zip(base, interiors):
            if c & ~inner == 0:
                rhs &= phi.assignment[b]
        if _preimage_mask(f, c) != rhs:
            identity_ok = False
    report = {
        "continuous": continuous,
        "surjective": onto,
        "preimage_identity": identity_ok,
    }
    return f, report


def frozen_self_representation_check(X):
    fam = X.closed_sorted()
    L = closed_set_lattice(X)
    W = wallman_space(L)
    try:
        point_map = [_fiber_point(X.full, (fam[a] for a in u.members)) for u in W.points]
    except NonSingletonFiber as err:
        return False, f"ultrafilter {err}"
    if sorted(point_map) != list(range(X.point_count)):
        return False, "ultrafilter-to-point map is not a bijection"
    image_closed = set()
    for a in L.elements():
        img = 0
        for i in range(len(W.points)):
            if W.base[a] >> i & 1:
                img |= 1 << point_map[i]
        image_closed.add(img)
    if image_closed != set(X.closed):
        return False, "base sets do not map onto the closed family"
    return True, None


def frozen_alexandroff_preimage(X, family):
    algebra, members = boolean_subalgebra_generated(X.point_count, family)
    if any(_meet_above(members, c, X.full) != c for c in X.closed):
        raise NotABase("generated algebra cannot present every closed set")
    W = stone_space(algebra)
    Y = W.space()
    f = [_fiber_point(X.full, (X.closure(members[a]) for a in u.members)) for u in W.points]
    if not is_continuous(f, Y, X):
        raise PostconditionFailed("Alexandroff preimage map is not continuous")
    if not is_surjective(f, Y, X):
        raise PostconditionFailed("Alexandroff preimage map is not onto")
    return Y, f


# ---------------------------------------------------------------- formula parser and printer
# `fol`'s parser with one method per precedence level, and its printer with
# one function for terms and one for formulas, as they were before both read
# `fol._CONNECTIVES` and `fol._OPERATORS`.


class FrozenParser:
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


def frozen_parse(text):
    p = FrozenParser(text)
    out = p.formula()
    tok, pos = p.tokens[p.i]
    if tok is not None:
        raise FormulaSyntaxError(f"trailing input: {tok!r}", pos)
    return out


def frozen_print_term(t, level):
    """level 0 = term (join allowed), 1 = factor (meet allowed), 2 = prim."""
    if isinstance(t, Bottom):
        return "0"
    if isinstance(t, Top):
        return "1"
    if isinstance(t, (Var, Const)):
        return t.name
    if isinstance(t, Join):
        s = f"{frozen_print_term(t.left, 0)} v {frozen_print_term(t.right, 1)}"
        return f"({s})" if level > 0 else s
    if isinstance(t, Meet):
        s = f"{frozen_print_term(t.left, 1)} ^ {frozen_print_term(t.right, 2)}"
        return f"({s})" if level > 1 else s
    raise TypeError(f"not a term: {t!r}")


def frozen_print_formula(f, level=0):
    """level 0 = formula, 1 = impl, 2 = disj, 3 = conj, 4 = neg/atom."""
    if isinstance(f, (Forall, Exists)):
        q = "A" if isinstance(f, Forall) else "E"
        s = f"{q} {f.var}. {frozen_print_formula(f.body, 0)}"
        return f"({s})" if level > 0 else s
    if isinstance(f, Implies):
        s = f"{frozen_print_formula(f.left, 2)} -> {frozen_print_formula(f.right, 0)}"
        return f"({s})" if level > 1 else s
    if isinstance(f, Or):
        s = f"{frozen_print_formula(f.left, 2)} | {frozen_print_formula(f.right, 3)}"
        return f"({s})" if level > 2 else s
    if isinstance(f, And):
        s = f"{frozen_print_formula(f.left, 3)} & {frozen_print_formula(f.right, 4)}"
        return f"({s})" if level > 3 else s
    if isinstance(f, Not):
        return f"!{frozen_print_formula(f.body, 4)}"
    if isinstance(f, Eq):
        return f"({frozen_print_term(f.left, 0)} = {frozen_print_term(f.right, 0)})"
    if isinstance(f, Leq):
        return f"({frozen_print_term(f.left, 0)} <= {frozen_print_term(f.right, 0)})"
    if isinstance(f, JPred):
        return f"J({frozen_print_term(f.left, 0)}, {frozen_print_term(f.right, 0)})"
    if isinstance(f, MPred):
        return "M(" + ", ".join(frozen_print_term(t, 0) for t in f.terms) + ")"
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------- compiled evaluator
# `fol`'s closure makers as they were before a quantifier node kept a memo
# of its truth: every quantifier reruns its loop on every call.  They bind
# the normal form of `fol._normal_form`, which they share with the package.


def frozen_term_maker(t):
    if isinstance(t, int):
        return lambda L: itemgetter(t)
    op, a, b = t
    if isinstance(a, int) and isinstance(b, int):
        def make(L):
            T = getattr(L, op)
            return lambda s: T[s[a]][s[b]]

        return make
    ma, mb = frozen_term_maker(a), frozen_term_maker(b)

    def make(L):
        T, ga, gb = getattr(L, op), ma(L), mb(L)
        return lambda s: T[ga(s)][gb(s)]

    return make


def frozen_atom_maker(f):
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
            ma = frozen_term_maker(a)

            def make(L):
                ga, c = ma(L), getattr(L, bound)
                return (lambda s: ga(s) == c) if eq else (lambda s: ga(s) != c)
        return make
    if isinstance(a, int) and isinstance(b, int):
        return lambda L: (lambda s: s[a] == s[b]) if eq else (lambda s: s[a] != s[b])
    ma, mb = frozen_term_maker(a), frozen_term_maker(b)

    def make(L):
        ga, gb = ma(L), mb(L)
        return (lambda s: ga(s) == gb(s)) if eq else (lambda s: ga(s) != gb(s))

    return make


def frozen_junction_maker(f):
    makers = [frozen_maker(p) for p in f.args]
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


def frozen_quantifier_maker(f):
    slot, body = f.args
    universal = f.kind == "all"
    parts = body.args if body.kind == ("or" if universal else "and") else (body,)
    makers = [frozen_maker(p) for p in parts]

    def make(L):
        tests, domain = [m(L) for m in makers], range(L.n)

        def run(s):
            for v in domain:
                s[slot] = v
                for test in tests:
                    if test(s) is universal:
                        break
                else:
                    return not universal
            return universal

        return run

    return make


def frozen_maker(f):
    if isinstance(f, bool):
        return lambda L: (lambda s: f)
    if f.kind in ("eq", "ne"):
        return frozen_atom_maker(f)
    if f.kind in ("and", "or"):
        return frozen_junction_maker(f)
    return frozen_quantifier_maker(f)


def frozen_compile_sentence(sentence, names):
    normal, depth, width = _normal_form(sentence, names)
    return Compiled(depth, width, frozen_maker(normal))


def frozen_eval_formula(L, sentence, constant_interpretation=None):
    interp = dict(constant_interpretation or {})
    compiled = frozen_compile_sentence(sentence, tuple(interp))
    slots = list(interp.values()) + [0] * (compiled.width - len(interp))
    return compiled.bind(L)(slots)


# ---------------------------------------------------------------- Stone space
# `wallman.stone_space` as it was when it built the lattice's masks three
# times besides `wallman_space`'s own build: in `is_boolean`, in its own
# clopen check and in `atoms`.


def frozen_stone_space(B):
    if not is_boolean(B):
        raise NotBoolean("input is not a finite Boolean algebra")
    W = wallman_space(B)
    npts = len(W.points)
    full = (1 << npts) - 1
    perp, cotop, _, _ = _masks(B)
    for a, (p, c) in enumerate(zip(perp, cotop)):
        if W.base[next(_bits(p & c))] != full & ~W.base[a]:
            raise PostconditionFailed(f"Stone base set of {a} is not clopen")
    if npts != len(atoms(B)):
        raise PostconditionFailed("Stone space has not one point per atom")
    return W
