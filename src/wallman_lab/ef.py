"""Back-and-forth pebble games deciding equivalence up to quantifier rank.

A position is a partial bijection f: A -> B between two lattices, with the
bounds pre-placed.  It is live when the pebbled elements satisfy the same
atomic formulas: for pebbled x, y the meet (join) of x and y is pebbled
exactly when the meet (join) of f(x), f(y) is, and f maps the one to the
other.  The start is live, as 0 != 1 on both sides and the meets and joins
of bounds are bounds.  When the challenger wins, the winning move tree
converts to a sentence separating the lattices.

The game is forward-checked: once per position, each challenger move gets a
mask of the replies that leave the position live, read off per-lattice
preimage rows, and the game goes on only from those replies.  When the
lattices are isomorphic by sigma, the matcher tries sigma(a) (or
sigma^-1(b)) first.  Whether some reply wins does not depend on the order
the replies are tried in, and the challenger's moves are tried in index
order, so sigma only speeds up the matcher's wins: no verdict, strategy or
sentence rests on it.
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
from .lattice import _bits, _preimages, lattice_isomorphism


@dataclass(frozen=True)
class SpoilerStrategy:
    """A winning challenger move: side 'A' or 'B', the element played, and
    one sub-strategy per opposing reply; empty responses = dead position."""

    side: str
    element: int
    responses: tuple  # tuple of SpoilerStrategy, indexed by the reply element


def _reply_masks(L, M, pre_M, f):
    """For each element a of L, the mask of the elements b of M for which
    f + {a: b} is live, f being a live position from L to M."""
    meet_pre, join_pre = pre_M
    pebbles = list(f.items())
    to_M = [-1] * L.n
    image = 0
    for y, fy in pebbles:
        to_M[y] = fy
        image |= 1 << fy
    # Closure: where the meet (join) of two pebbles is unpebbled in L, so is
    # the one of their images in M, and a new pebble lands on the one exactly
    # when its reply lands on the other.
    lands_L, lands_M = {}, {}
    for i, (x, fx) in enumerate(pebbles):
        meet_x, join_x, meet_fx, join_fx = L.meet[x], L.join[x], M.meet[fx], M.join[fx]
        for y, fy in pebbles[:i]:
            for e, e2 in ((meet_x[y], meet_fx[fy]), (join_x[y], join_fx[fy])):
                if to_M[e] < 0:
                    lands_L[e] = lands_L.get(e, 0) | 1 << e2
                    lands_M[e2] = lands_M.get(e2, 0) | 1 << e
    landed = 0
    for e2 in lands_M:
        landed |= 1 << e2
    # For a new pebble a and an old one y, with e = meet[a][y]: if e == a
    # (a <= y) the reply b must lie below f(y); if e is pebbled, b's meet with
    # f(y) must be f(e); else that meet must be neither pebbled nor b.
    # Likewise for joins.
    rows = []
    for y, fy in pebbles:
        meet_row, join_row = meet_pre[fy], join_pre[fy]
        below, above = join_row[fy], meet_row[fy]
        hit_meet, hit_join = below, above
        for _, v in pebbles:
            hit_meet |= meet_row[v]
            hit_join |= join_row[v]
        rows.append((L.meet[y], L.join[y], meet_row, join_row, ~hit_meet, ~hit_join, below, above))
    free = ((1 << M.n) - 1) & ~image
    masks = []
    for a, fa in enumerate(to_M):
        if fa >= 0:
            masks.append(1 << fa)
            continue
        m = lands_L.get(a)
        if m is None:
            m = free & ~landed
        elif m & (m - 1) or lands_M[m.bit_length() - 1] != 1 << a:
            m = 0  # the pairs landing on a disagree, or their image is also landed on off a
        for meet_y, join_y, meet_row, join_row, miss_meet, miss_join, below, above in rows:
            if not m:
                break
            e = meet_y[a]
            m &= below if e == a else miss_meet if to_M[e] < 0 else meet_row[to_M[e]]
            e = join_y[a]
            m &= above if e == a else miss_join if to_M[e] < 0 else join_row[to_M[e]]
        masks.append(m)
    return masks


class _Game:
    """One game between A and B: the preimage rows of both lattices, the
    reply order, the reply masks of each position met and the memo of
    (position, rounds left) -> does the matcher win.

    A position is coded as an int holding f(a) + 1 in the bits
    [a * width, (a + 1) * width) for each pebbled a, so pebbling (a, b) is
    or-ing in pebbles_A[a][b], which is pebbles_B[b][a].
    """

    def __init__(self, A, B):
        self.A, self.B = A, B
        self.pre_A, self.pre_B = _preimages(A), _preimages(B)
        self.width = B.n.bit_length()
        self.pebbles_A = [[b + 1 << self.width * a for b in range(B.n)] for a in range(A.n)]
        self.pebbles_B = [list(column) for column in zip(*self.pebbles_A)]
        sigma = lattice_isomorphism(A, B) or {}
        self.to_B = [sigma.get(a) for a in range(A.n)]
        self.to_A = [None] * B.n
        for a, b in sigma.items():
            self.to_A[b] = a
        self.memo = {}
        self.replies = {}

    def code(self, pairs):
        return sum(self.pebbles_A[a][b] for a, b in pairs)

    def reply_masks(self, code):
        """(masks_A, masks_B): the live replies in B to each move in A, and
        those in A to each move in B."""
        masks = self.replies.get(code)
        if masks is None:
            w, low = self.width, (1 << self.width) - 1
            f = {}
            for a in range(self.A.n):
                b = code >> w * a & low
                if b:
                    f[a] = b - 1
            g = {b: a for a, b in f.items()}
            masks = self.replies[code] = (
                _reply_masks(self.A, self.B, self.pre_B, f),
                _reply_masks(self.B, self.A, self.pre_A, g),
            )
        return masks

    def matcher_wins(self, code, k):
        key = (code, k)
        won = self.memo.get(key)
        if won is None:
            won = self.memo[key] = k == 0 or self.spoiler_move(code, k) is None
        return won

    def spoiler_move(self, code, k):
        """The first challenger move that the matcher cannot answer with
        k - 1 rounds left, as (side, element, mask of live replies), or None."""
        masks_A, masks_B = self.reply_masks(code)
        for side, masks, guide, pebbles in (
            ("A", masks_A, self.to_B, self.pebbles_A),
            ("B", masks_B, self.to_A, self.pebbles_B),
        ):
            for e, replies in enumerate(masks):
                pebble, first = pebbles[e], guide[e]
                if first is not None and replies >> first & 1 and self.matcher_wins(code | pebble[first], k - 1):
                    continue
                if not any(self.matcher_wins(code | pebble[r], k - 1) for r in _bits(replies)):
                    return side, e, replies
        return None


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
    game = _Game(A, B)
    code = game.code(((A.bottom, B.bottom), (A.top, B.top)))
    if game.matcher_wins(code, rounds):
        return True, None
    return False, _extract(game, code, rounds)


# Module-level recursions and methods, not closures that call themselves:
# such a closure is a reference cycle that keeps each game's memo alive until
# the garbage collector runs.


def _extract(game, code, k):
    move = game.spoiler_move(code, k)
    if move is None:
        raise AssertionError("no winning move from a lost position")
    side, e, replies = move
    pebble = (game.pebbles_A if side == "A" else game.pebbles_B)[e]
    # a reply outside the mask is dead already and needs no further moves
    return SpoilerStrategy(
        side, e, tuple(_extract(game, code | p, k - 1) if replies >> r & 1 else None for r, p in enumerate(pebble))
    )


def _term(i):
    """Term i of the separator scan: 0, 1, then the pebble variables."""
    return BOT if i == 0 else TOP if i == 1 else Var(f"p{i - 2}")


def _atomic_separator(A, B, pebbles_a, pebbles_b):
    """An atomic sentence over the pebble variables true in A, false in B.

    Pebble i is the variable p{i}; the bounds enter as the constants 0, 1.
    The atom is the first in the order of a scan over term triples (t1, t2,
    t3), equality of t1 and t2 before the t3, meet before join at each t3.
    at_A[e] is the mask of the terms with value e in A, so the t3 at which
    the meet of t1, t2 tells A from B is the lowest bit of
    at_A[m_A] ^ at_B[m_B].
    """
    values = list(zip([A.bottom, A.top, *pebbles_a], [B.bottom, B.top, *pebbles_b]))
    at_A, at_B = [0] * A.n, [0] * B.n
    for i, (a, b) in enumerate(values):
        at_A[a] |= 1 << i
        at_B[b] |= 1 << i
    for i, (a1, b1) in enumerate(values):
        meet_a, meet_b, join_a, join_b = A.meet[a1], B.meet[b1], A.join[a1], B.join[b1]
        for j, (a2, b2) in enumerate(values):
            if (a1 == a2) != (b1 == b2):
                phi = Eq(_term(i), _term(j))
                return phi if a1 == a2 else Not(phi)
            off_meet = at_A[meet_a[a2]] ^ at_B[meet_b[b2]]
            off = off_meet | at_A[join_a[a2]] ^ at_B[join_b[b2]]
            if off:
                low = off & -off
                t3 = _term(low.bit_length() - 1)
                if off_meet & low:
                    phi, in_A = Eq(Meet(_term(i), _term(j)), t3), at_A[meet_a[a2]]
                else:
                    phi, in_A = Eq(Join(_term(i), _term(j)), t3), at_A[join_a[a2]]
                return phi if in_A & low else Not(phi)
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
    backtracking search confirms.  The game takes from that search only the
    order in which the matcher tries its replies, never a verdict.
    """
    k = A.n + B.n
    equivalent, _ = ef_equivalent(A, B, k)
    isomorphic = lattice_isomorphism(A, B) is not None
    if equivalent != isomorphic:
        raise PostconditionFailed("pebble-game verdict disagrees with the isomorphism search")
    return equivalent
