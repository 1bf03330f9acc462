"""Brute-force oracles for the tests, meant only for very small inputs:
every labeled lattice on n elements, an exhaustive search over point maps
set against `find_L_morphism`, the plain pebble game that `ef` refines, and
the two `homsearch` searches without forward checking.
"""

from wallman_lab.ef import SpoilerStrategy
from wallman_lab.fol import BOT, TOP, And, Eq, Exists, Forall, Join, Meet, Not, Or, Var
from wallman_lab.homsearch import LMorphism, _check_base, find_L_morphism
from wallman_lab.lattice import _first_assignment, validate
from wallman_lab.spaces import is_continuous, is_surjective


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
    base = _check_base(Y, base)
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
