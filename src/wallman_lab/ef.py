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
    start = frozenset(((A.bottom, B.bottom), (A.top, B.top)))
    if _matcher_wins(A, B, memo, start, rounds):
        return True, None
    return False, _extract(A, B, memo, start, rounds)


# Module-level recursions, not closures that call themselves: such a closure
# is a reference cycle that keeps each game's memo alive until the garbage
# collector runs.


def _matcher_wins(A, B, memo, pairs, k):
    key = (pairs, k)
    if key not in memo:
        memo[key] = _consistent(A, B, pairs) and (k == 0 or _spoiler_move(A, B, memo, pairs, k) is None)
    return memo[key]


def _spoiler_move(A, B, memo, pairs, k):
    """The first challenger move, as (side, element), that the matcher cannot
    answer with k - 1 rounds left, or None."""
    for a in range(A.n):
        if not any(_matcher_wins(A, B, memo, pairs | {(a, b)}, k - 1) for b in range(B.n)):
            return "A", a
    for b in range(B.n):
        if not any(_matcher_wins(A, B, memo, pairs | {(a, b)}, k - 1) for a in range(A.n)):
            return "B", b
    return None


def _extract(A, B, memo, pairs, k):
    if not _consistent(A, B, pairs):
        return None  # already-dead positions need no further moves
    move = _spoiler_move(A, B, memo, pairs, k)
    if move is None:
        raise AssertionError("no winning move from a lost position")
    side, e = move
    replies = [pairs | {(e, b)} for b in range(B.n)] if side == "A" else [pairs | {(a, e)} for a in range(A.n)]
    return SpoilerStrategy(side, e, tuple(_extract(A, B, memo, reply, k - 1) for reply in replies))


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


def _sentence(A, B, strat, pebbles_a, pebbles_b):
    if strat is None:
        return _atomic_separator(A, B, pebbles_a, pebbles_b)
    subs = []
    for reply, sub in enumerate(strat.responses):
        if strat.side == "A":
            s = _sentence(A, B, sub, pebbles_a + [strat.element], pebbles_b + [reply])
        else:
            s = _sentence(A, B, sub, pebbles_a + [reply], pebbles_b + [strat.element])
        if s not in subs:
            subs.append(s)
    connective, quantifier = (And, Exists) if strat.side == "A" else (Or, Forall)
    body = subs[0]
    for s in subs[1:]:
        body = connective(body, s)
    return quantifier(f"p{len(pebbles_a)}", body)


def strategy_to_sentence(A, B, strategy):
    """A sentence of quantifier rank <= rounds, true in A and false in B."""
    sentence = _sentence(A, B, strategy, [], [])
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
