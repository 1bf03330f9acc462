"""Brute-force oracles for the tests, meant only for very small inputs:
every labeled lattice on n elements, an exhaustive search over point maps
set against `find_L_morphism`, the plain pebble game that `ef` refines,
the two `homsearch` searches without forward checking, and the `intervals`
operations and `satisfies_dim_le1` as they were before integer keys,
`all_spaces` as it was before the pruned search, and the `fol` builtins and
`kappa_constants_theory` as they were built before they were written as
text.
"""

from dataclasses import dataclass
from fractions import Fraction

from wallman_lab.ef import SpoilerStrategy
from wallman_lab.fol import BOT, TOP, And, Const, Eq, Exists, Forall, Implies, Join, Leq, Meet, Not, Or, Theory, Var
from wallman_lab.homsearch import LMorphism, _valid_base, find_L_morphism
from wallman_lab.errors import NonCanonicalInput, NotApplicable, NotDisjoint, PostconditionFailed
from wallman_lab.lattice import _bits, _first_assignment, _masks, validate
from wallman_lab.spaces import FiniteSpace, _is_lattice_family, is_continuous, is_surjective


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
    values = _first_assignment(domains, step, 0)
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

    values = _first_assignment(domains, step, [full_y] * X.point_count)
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
    perp, cotop = _masks(L)
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
