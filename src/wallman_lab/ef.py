"""Back-and-forth pebble games deciding equivalence up to quantifier rank.

A position is a partial bijection f: A -> B between two lattices, with the
bounds pre-placed.  It is live when the pebbled elements satisfy the same
atomic formulas: for pebbled x, y the meet (join) of x and y is pebbled
exactly when the meet (join) of f(x), f(y) is, and f maps the one to the
other.  The start is live, as 0 != 1 on both sides and the meets and joins
of bounds are bounds.  When the challenger wins, the winning move tree
converts to a sentence separating the lattices, node by node: one scan per
node gives the atoms of all its dead replies, and equal atoms are one object
across every sentence.

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
from functools import lru_cache, reduce

from .errors import PostconditionFailed, PreconditionViolated
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
    if isinstance(rounds, bool) or not isinstance(rounds, int) or rounds < 0:
        raise ValueError(f"rounds must be a non-negative integer, not {rounds!r}")
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
        raise PostconditionFailed("no winning move from a lost position")
    side, e, replies = move
    pebble = (game.pebbles_A if side == "A" else game.pebbles_B)[e]
    # a reply outside the mask is dead already and needs no further moves
    return SpoilerStrategy(
        side, e, tuple(_extract(game, code | p, k - 1) if replies >> r & 1 else None for r, p in enumerate(pebble))
    )


@lru_cache(maxsize=64)
def _term(i):
    """Term i of the separator scan: 0, 1, then the pebble variables."""
    return BOT if i == 0 else TOP if i == 1 else Var(f"p{i - 2}")


@lru_cache(maxsize=4096)
def _atom(op, i, j, k, positive):
    """op(t_i, t_j) = t_k, or its negation.  Equal atoms are one object
    across every sentence, so comparing them stops at identity and each
    keeps one hash."""
    if not positive:
        return Not(_atom(op, i, j, k, True))
    return Eq(op(_term(i), _term(j)), _term(k))


def _dead_atoms(L, M, on_L, on_M, x, dead, in_A):
    """{y: atom} for each reply y in the mask dead: the first atom, in the
    scan order, whose truth tells L with the new pebble on x from M with it
    on y, stated to hold in A (L is A when in_A, else M is).

    Terms are 0, 1, then the pebbles, with values on_L in L and on_M in M,
    and the new pebble last.  The scan runs over term pairs (t1, t2), then
    t3, meet before join at each t3; at_L[e] is the mask of the terms with
    value e in L, so the t3 at which the meet of t1, t2 tells L from M is the
    lowest bit of at_L[meet in L] ^ at_M[meet in M].  The old position is
    live, so an old pair's meet (join) can only differ on the new term: for
    all replies at once that is one mask, the replies y for which exactly
    one of meet_L == x, meet_M == y holds.  The pairs with the new term are
    worked out per reply.  As meets and joins commute, (t2, t1) repeats
    (t1, t2), so only t2 >= t1 is scanned.  No equality t_i = t_j needs a
    scan of its own: if it holds in one structure only, the pair (k, k),
    k = min(i, j), already shows it, as t_k ^ t_k = t_k is read against
    every term.
    """
    new = len(on_L)
    bit = 1 << new
    at_L, at_M = [0] * L.n, [0] * M.n
    for i, (a, b) in enumerate(zip(on_L, on_M)):
        at_L[a] |= 1 << i
        at_M[b] |= 1 << i
    at_L[x] |= bit
    atoms = {}
    for i, (a1, b1) in enumerate(zip(on_L, on_M)):
        meet_L, join_L, meet_M, join_M = L.meet[a1], L.join[a1], M.meet[b1], M.join[b1]
        rows = ((Meet, meet_L, meet_M), (Join, join_L, join_M))
        for j in range(i, new):
            a2, b2 = on_L[j], on_M[j]
            for op, row_L, row_M in rows:
                on_x = row_L[a2] == x
                hits = dead & ~(1 << row_M[b2]) if on_x else dead & 1 << row_M[b2]
                if hits:
                    atom = _atom(op, i, j, new, on_x == in_A)
                    for y in _bits(hits):
                        atoms[y] = atom
                    dead ^= hits
        meet_x, join_x = meet_L[x], join_L[x]
        for y in _bits(dead):
            meet_y, join_y = meet_M[y], join_M[y]
            off_meet = at_L[meet_x] ^ at_M[meet_y] ^ (bit if meet_y == y else 0)
            off = off_meet | at_L[join_x] ^ at_M[join_y] ^ (bit if join_y == y else 0)
            if off:
                low = off & -off
                op, e = (Meet, meet_x) if off_meet & low else (Join, join_x)
                atoms[y] = _atom(op, i, new, low.bit_length() - 1, bool(at_L[e] & low) == in_A)
                dead ^= 1 << y
        if not dead:
            return atoms
    # (new, new) would tell L from M only at an i with (a_i == x) != (b_i == y),
    # and the pairs (i, i) struck every such reply y: no atom is left to find
    raise PreconditionViolated(f"no atom tells reply {next(_bits(dead))} apart: the strategy does not win")


def _sentence(A, B, strat, on_A, on_B):
    """The sentence of strategy node strat at the live position whose terms
    (0, 1, then the pebbles) take the values on_A in A and on_B in B."""
    dead = sum(1 << reply for reply, sub in enumerate(strat.responses) if sub is None)
    if strat.side == "A":
        atoms = _dead_atoms(A, B, on_A, on_B, strat.element, dead, True)
    else:
        atoms = _dead_atoms(B, A, on_B, on_A, strat.element, dead, False)
    subs = {}  # a set kept in first-seen order: each sentence's hash is kept on it, for eval_formula's cache too
    for reply, sub in enumerate(strat.responses):
        if sub is None:
            s = atoms[reply]
        elif strat.side == "A":
            s = _sentence(A, B, sub, on_A + [strat.element], on_B + [reply])
        else:
            s = _sentence(A, B, sub, on_A + [reply], on_B + [strat.element])
        subs[s] = None
    connective, quantifier = (And, Exists) if strat.side == "A" else (Or, Forall)
    return quantifier(f"p{len(on_A) - 2}", reduce(connective, subs))


def strategy_to_sentence(A, B, strategy):
    """A sentence of quantifier rank <= rounds, true in A and false in B."""
    if strategy is None:
        raise PreconditionViolated("no strategy: the matcher survived, so no sentence separates the lattices")
    sentence = _sentence(A, B, strategy, [A.bottom, A.top], [B.bottom, B.top])
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
