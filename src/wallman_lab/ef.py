"""Back-and-forth pebble games deciding equivalence up to quantifier rank.

Positions are partial maps between two lattices with the bounds pre-placed.
A position is alive when the pebbled elements satisfy the same atomic
formulas (equality and meet/join facts over pebbles).  When the challenger
wins, the winning move tree converts to a sentence separating the lattices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PostconditionFailed
from .fol import (
    And,
    BOT,
    Eq,
    Exists,
    Forall,
    Join,
    Meet,
    Not,
    Or,
    TOP,
    Var,
    eval_formula,
)
from .lattice import lattice_isomorphism


@dataclass(frozen=True)
class SpoilerStrategy:
    """A winning challenger move: side 'A' or 'B', the element played, and
    one sub-strategy per opposing reply; empty responses = dead position."""

    side: str
    element: int
    responses: tuple  # tuple of SpoilerStrategy, indexed by the reply element


def _consistent(A, B, pairs):
    """Do the pebbled tuples satisfy the same atomic formulas?"""
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


def ef_equivalent(A, B, rounds):
    """(True, None) if the matcher survives `rounds` rounds, else
    (False, SpoilerStrategy).

    A lattice on n elements is described up to isomorphism by a sentence of
    quantifier rank n + 1, so no verdict changes past min(A.n, B.n) + 1
    rounds and the game is played with at most that many.
    """
    if rounds < 0:
        raise ValueError(f"rounds must be non-negative, not {rounds}")
    rounds = min(rounds, min(A.n, B.n) + 1)
    memo = {}

    def matcher_wins(pairs, k):
        key = (pairs, k)
        if key in memo:
            return memo[key]
        if not _consistent(A, B, pairs):
            memo[key] = False
            return False
        if k == 0:
            memo[key] = True
            return True
        result = True
        for a in range(A.n):
            if not any(matcher_wins(pairs | {(a, b)}, k - 1) for b in range(B.n)):
                result = False
                break
        if result:
            for b in range(B.n):
                if not any(matcher_wins(pairs | {(a, b)}, k - 1) for a in range(A.n)):
                    result = False
                    break
        memo[key] = result
        return result

    def extract(pairs, k):
        if not _consistent(A, B, pairs):
            return None  # already-dead positions need no further moves
        for a in range(A.n):
            if not any(matcher_wins(pairs | {(a, b)}, k - 1) for b in range(B.n)):
                resp = tuple(extract(pairs | {(a, b)}, k - 1) for b in range(B.n))
                return SpoilerStrategy("A", a, resp)
        for b in range(B.n):
            if not any(matcher_wins(pairs | {(a, b)}, k - 1) for a in range(A.n)):
                resp = tuple(extract(pairs | {(a, b)}, k - 1) for a in range(A.n))
                return SpoilerStrategy("B", b, resp)
        raise AssertionError("no winning move from a lost position")

    start = frozenset(((A.bottom, B.bottom), (A.top, B.top)))
    if matcher_wins(start, rounds):
        return True, None
    return False, extract(start, rounds)


def _atomic_separator(A, B, pebbles_a, pebbles_b):
    """An atomic sentence over the pebble variables true in A, false in B.

    Pebble i is the variable p{i}; the bounds enter as the constants 0, 1.
    """
    terms_a = [(BOT, A.bottom, B.bottom), (TOP, A.top, B.top)]
    for i, (a, b) in enumerate(zip(pebbles_a, pebbles_b)):
        terms_a.append((Var(f"p{i}"), a, b))
    for t1, a1, b1 in terms_a:
        for t2, a2, b2 in terms_a:
            if (a1 == a2) != (b1 == b2):
                phi = Eq(t1, t2)
                return phi if a1 == a2 else Not(phi)
            for t3, a3, b3 in terms_a:
                if (A.meet[a1][a2] == a3) != (B.meet[b1][b2] == b3):
                    phi = Eq(Meet(t1, t2), t3)
                    return phi if A.meet[a1][a2] == a3 else Not(phi)
                if (A.join[a1][a2] == a3) != (B.join[b1][b2] == b3):
                    phi = Eq(Join(t1, t2), t3)
                    return phi if A.join[a1][a2] == a3 else Not(phi)
    raise AssertionError("pebbled tuples are atomically equivalent")


def strategy_to_sentence(A, B, strategy):
    """A sentence of quantifier rank <= rounds, true in A and false in B."""

    def build(strat, pebbles_a, pebbles_b):
        if strat is None:
            return _atomic_separator(A, B, pebbles_a, pebbles_b)
        var = f"p{len(pebbles_a)}"
        if strat.side == "A":
            subs = []
            for b, sub in enumerate(strat.responses):
                s = build(sub, pebbles_a + [strat.element], pebbles_b + [b])
                if s not in subs:
                    subs.append(s)
            body = subs[0]
            for s in subs[1:]:
                body = And(body, s)
            return Exists(var, body)
        subs = []
        for a, sub in enumerate(strat.responses):
            s = build(sub, pebbles_a + [a], pebbles_b + [strat.element])
            if s not in subs:
                subs.append(s)
        body = subs[0]
        for s in subs[1:]:
            body = Or(body, s)
        return Forall(var, body)

    sentence = build(strategy, [], [])
    if eval_formula(A, sentence) is not True:
        raise PostconditionFailed("separating sentence is false in A")
    if eval_formula(B, sentence) is not False:
        raise PostconditionFailed("separating sentence is true in B")
    return sentence


def elementarily_equivalent_finite(A, B):
    """Equivalence at every quantifier rank up to |A| + |B|.

    For finite lattices this coincides with isomorphism, which an independent
    backtracking search confirms.
    """
    k = A.n + B.n
    equivalent, _ = ef_equivalent(A, B, k)
    isomorphic = lattice_isomorphism(A, B) is not None
    if equivalent != isomorphic:
        raise PostconditionFailed("pebble-game verdict disagrees with the isomorphism search")
    return equivalent
