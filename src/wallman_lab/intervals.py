"""Finite unions of closed rational-endpoint subintervals of [0,1].

The one computable infinite lattice instance.  Everything is exact Fraction
arithmetic; universal properties are exposed as witness constructors and
refuters instead of boolean deciders.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NonCanonicalInput, NotApplicable, NotDisjoint, PostconditionFailed

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class RationalIntervalSet:
    """Canonical union of closed intervals: sorted, disjoint, non-adjacent."""

    intervals: tuple  # tuple of (Fraction lo, Fraction hi)

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

    def contains(self, q):
        return any(lo <= q <= hi for lo, hi in self.intervals)

    def __str__(self):
        if not self.intervals:
            return "{}"
        return "U".join(f"[{lo},{hi}]" for lo, hi in self.intervals)


EMPTY = RationalIntervalSet(())


def riset(*pairs):
    """Build a canonical set from (lo, hi) pairs in any order, merging as needed."""
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
    return RationalIntervalSet(tuple((lo, hi) for lo, hi in merged))


def top():
    return riset((0, 1))


def is_bottom(a):
    return a.is_empty()


def join(a, b):
    """Set union, re-canonicalized (touching closed intervals merge)."""
    return riset(*(a.intervals + b.intervals))


def meet(a, b):
    """Set intersection."""
    out = []
    for lo1, hi1 in a.intervals:
        for lo2, hi2 in b.intervals:
            lo, hi = max(lo1, lo2), min(hi1, hi2)
            if lo <= hi:
                out.append((lo, hi))
    return riset(*out)


def difference_pieces(a, b):
    """a minus b as half-open/open pieces (lo, lo_open, hi, hi_open)."""
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


def normality_witness(x, y):
    """For disjoint x, y return (u, v) with x^u = 0, y^v = 0, u v v = [0,1].

    Cuts every gap between an x-component and a y-component at its midpoint;
    each resulting piece goes to v if it holds x-material, u otherwise.
    """
    if not meet(x, y).is_empty():
        raise NotDisjoint("x and y must have empty intersection")
    comps = sorted(
        [(lo, hi, "x") for lo, hi in x.intervals] + [(lo, hi, "y") for lo, hi in y.intervals]
    )
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
    u = riset(*u_parts)
    v = riset(*v_parts)
    if not (meet(x, u).is_empty() and meet(y, v).is_empty() and join(u, v) == top()):
        raise PostconditionFailed("normality witness does not separate")
    return u, v


def disjunctive_witness(a, b):
    """A nonempty c <= a with c ^ b = 0, for a not<= b."""
    if meet(a, b) == a:
        raise NotApplicable("a <= b")
    pieces = difference_pieces(a, b)
    for lo, lo_open, hi, hi_open in pieces:
        if lo == hi:
            c = riset((lo, hi))
            break
        if lo < hi:
            quarter = (hi - lo) / 4
            clo = lo + quarter if lo_open else lo
            chi = hi - quarter if hi_open else hi
            c = riset((clo, chi))
            break
    else:  # pragma: no cover - nonempty difference always yields a piece
        raise NotApplicable("no nonempty difference piece found")
    if c.is_empty() or meet(c, a) != c or not meet(c, b).is_empty():
        raise PostconditionFailed("disjunctive witness is not a nonempty part of a off b")
    return c


def refute_partition(x, y):
    """Explain why (x, y) fails to disconnect [0,1].

    Returns (reason, evidence); one of the four partition hypotheses always
    fails because [0,1] is connected.
    """
    common = meet(x, y)
    if not common.is_empty():
        return "meet-nonempty", common
    union = join(x, y)
    if union != top():
        gap = difference_pieces(top(), union)[0]
        return "join-not-top", gap
    if x.is_empty():
        return "x-empty", x
    if y.is_empty():
        return "y-empty", y
    raise RuntimeError("unreachable: [0,1] cannot be split by closed sets")
