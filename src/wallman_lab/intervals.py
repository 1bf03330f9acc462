"""Finite unions of closed rational-endpoint subintervals of [0,1].

The one computable infinite lattice instance.  The arithmetic is exact:
every endpoint is a Fraction, and the endpoints of a result are those of the
inputs except where a value is new (the midpoints of `normality_witness`, the
quarter points of `disjunctive_witness`).  Comparisons run on ints: each set
keeps its endpoints' numerators over their least common denominator, and an
operation on two sets scales both to the lcm of the two.  Universal
properties are exposed as witness constructors and refuters instead of
boolean deciders.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import itemgetter

from .errors import NonCanonicalInput, NotApplicable, NotDisjoint, PostconditionFailed

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class RationalIntervalSet:
    """Canonical union of closed intervals: sorted, disjoint, non-adjacent.

    Validation keeps `_scale`, (d, ((lo * d, hi * d, lo, hi), ...)) with d
    the least common denominator of the endpoints.  It is not a field, so
    equality, hashing and repr see only the intervals."""

    intervals: tuple  # tuple of (Fraction lo, Fraction hi)

    def __post_init__(self):
        # The intervals before the first that is not a pair of exact
        # Fractions are checked first, so the first faulty interval names
        # the error.  Their slots are read directly: the numerator and
        # denominator properties would cost more than the rest of the check.
        d, typed = 1, 0
        for lo, hi in self.intervals:
            if not (type(lo) is Fraction and type(hi) is Fraction):
                break
            d = lcm(d, lo._denominator, hi._denominator)
            typed += 1
        items, prev_hi = [], -1
        for lo, hi in self.intervals[:typed]:
            klo, khi = lo._numerator * (d // lo._denominator), hi._numerator * (d // hi._denominator)
            if not 0 <= klo <= khi <= d:
                raise NonCanonicalInput(f"interval [{lo},{hi}] not inside [0,1]")
            if klo <= prev_hi:
                raise NonCanonicalInput("intervals must be sorted and non-adjacent")
            items.append((klo, khi, lo, hi))
            prev_hi = khi
        if typed < len(self.intervals):
            raise NonCanonicalInput("endpoints must be Fractions")
        object.__setattr__(self, "_scale", (d, tuple(items)))

    def is_empty(self):
        return not self.intervals

    def contains(self, q):
        return any(lo <= q <= hi for lo, hi in self.intervals)

    def __str__(self):
        if not self.intervals:
            return "{}"
        return "U".join(f"[{lo},{hi}]" for lo, hi in self.intervals)


EMPTY = RationalIntervalSet(())
TOP = RationalIntervalSet(((ZERO, ONE),))
_int_key = itemgetter(0, 1)  # sort items on their ints alone


def _on(d, s):
    """s's intervals as (lo * d, hi * d, lo, hi), for d a multiple of s's denominator."""
    ds, items = s._scale
    if d == ds:
        return items
    m = d // ds
    return [(klo * m, khi * m, lo, hi) for klo, khi, lo, hi in items]


def _common(a, b):
    """(d, a's items, b's items) on d, the lcm of a's and b's denominators."""
    d = lcm(a._scale[0], b._scale[0])
    return d, _on(d, a), _on(d, b)


def _merged(items):
    """The canonical set of (klo, khi, lo, hi) items on one scale, sorted by
    (klo, khi): overlapping and touching intervals merge."""
    out, end = [], -1
    for klo, khi, lo, hi in items:
        if out and klo <= end:
            if khi > end:
                out[-1], end = (out[-1][0], hi), khi
        else:
            out.append((lo, hi))
            end = khi
    return RationalIntervalSet(tuple(out))


def _fraction(v):
    """v as exactly a Fraction, whose slots riset then reads."""
    return v if type(v) is Fraction else Fraction(v)


def riset(*pairs):
    """Build a canonical set from (lo, hi) pairs in any order, merging as needed."""
    ivs = [(_fraction(lo), _fraction(hi)) for lo, hi in pairs]
    d = lcm(*[e._denominator for iv in ivs for e in iv])
    items = sorted(
        [(lo._numerator * (d // lo._denominator), hi._numerator * (d // hi._denominator), lo, hi) for lo, hi in ivs],
        key=_int_key,
    )
    for klo, khi, lo, hi in items:
        if klo > khi:
            raise NonCanonicalInput(f"empty interval [{lo},{hi}]")
    return _merged(items)


def join(a, b):
    """Set union, re-canonicalized (touching closed intervals merge)."""
    _, xs, ys = _common(a, b)
    return _merged(sorted([*xs, *ys], key=_int_key))


def meet(a, b):
    """Set intersection.  The pieces a_i ^ b_j come out sorted and apart, as
    the intervals of a and of b are."""
    _, xs, ys = _common(a, b)
    out = []
    for alo, ahi, lo1, hi1 in xs:
        for blo, bhi, lo2, hi2 in ys:
            if alo <= bhi and blo <= ahi:
                out.append((lo1 if alo >= blo else lo2, hi1 if ahi <= bhi else hi2))
    return RationalIntervalSet(tuple(out))


def _pieces(xs, ys):
    """The items xs minus the items ys, on one scale, as (klo, khi, lo,
    lo_open, hi, hi_open)."""
    pieces = []
    for klo, khi, lo, hi in xs:
        segments = [(klo, khi, lo, False, hi, False)]
        for kblo, kbhi, blo, bhi in ys:
            nxt = []
            for seg in segments:
                slo, shi, lo_, so, hi_, sh = seg
                if kbhi < slo or kblo > shi:
                    nxt.append(seg)
                    continue
                if slo < kblo:
                    nxt.append((slo, kblo, lo_, so, blo, True))
                if kbhi < shi:
                    nxt.append((kbhi, shi, bhi, True, hi_, sh))
            segments = nxt
        pieces.extend(s for s in segments if s[0] < s[1] or not (s[3] or s[5]))
    return pieces


def difference_pieces(a, b):
    """a minus b as half-open/open pieces (lo, lo_open, hi, hi_open)."""
    _, xs, ys = _common(a, b)
    return [p[2:] for p in _pieces(xs, ys)]


def normality_witness(x, y):
    """For disjoint x, y return (u, v) with x^u = 0, y^v = 0, u v v = [0,1].

    Cuts every gap between an x-component and a y-component at its midpoint;
    each resulting piece goes to v if it holds x-material, u otherwise.  The
    pieces then alternate between u and v, so neither needs merging.
    """
    if not meet(x, y).is_empty():
        raise NotDisjoint("x and y must have empty intersection")
    d, xs, ys = _common(x, y)
    comps = sorted([(klo, khi, True) for klo, khi, _, _ in xs] + [(klo, khi, False) for klo, khi, _, _ in ys])
    cuts = [(0, ZERO)]  # (cut * 2d, cut): the midpoints are ints on the scale 2d
    for (_, hi1, t1), (lo2, _, t2) in zip(comps, comps[1:]):
        if t1 != t2:
            cuts.append((hi1 + lo2, Fraction(hi1 + lo2, 2 * d)))
    cuts.append((2 * d, ONE))
    u_parts, v_parts = [], []
    for (ka, a), (kb, b) in zip(cuts, cuts[1:]):
        has_x = any(t and not (2 * hi < ka or 2 * lo > kb) for lo, hi, t in comps)
        (v_parts if has_x else u_parts).append((a, b))
    u = RationalIntervalSet(tuple(u_parts))
    v = RationalIntervalSet(tuple(v_parts))
    if not (meet(x, u).is_empty() and meet(y, v).is_empty() and join(u, v) == TOP):
        raise PostconditionFailed("normality witness does not separate")
    return u, v


def disjunctive_witness(a, b):
    """A nonempty c <= a with c ^ b = 0, for a not<= b."""
    if meet(a, b) == a:
        raise NotApplicable("a <= b")
    d, xs, ys = _common(a, b)
    # a point of a outside the closed set b lies in a piece that `_pieces` keeps
    klo, khi, lo, lo_open, hi, hi_open = _pieces(xs, ys)[0]
    # an open end moves in by a quarter of the piece: (3 lo + hi) / 4 and (lo + 3 hi) / 4
    clo = Fraction(3 * klo + khi, 4 * d) if lo_open else lo
    chi = Fraction(klo + 3 * khi, 4 * d) if hi_open else hi
    c = RationalIntervalSet(((clo, chi),))
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
    if union != TOP:
        gap = difference_pieces(TOP, union)[0]
        return "join-not-top", gap
    if x.is_empty():
        return "x-empty", x
    if y.is_empty():
        return "y-empty", y
    raise PostconditionFailed("unreachable: [0,1] cannot be split by closed sets")
