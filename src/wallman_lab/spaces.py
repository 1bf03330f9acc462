"""Finite topological spaces stored by their closed-set families.

Point sets are int bitmasks throughout; helpers convert to/from index lists
at the boundary.  The closed-set family always contains the empty set and the
full set and is closed under pairwise union and intersection.

`all_spaces(n)` lists every such family on n points by a depth-first search
over the other masks (see `_topologies`), and refuses more than
SPACE_POINT_CAP = 6 points: 209,527 spaces there, 9.5 M on 7.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    MalformedTables,
    NonSingletonFiber,
    NotABase,
    NotClosed,
    NotContinuous,
    NotSurjective,
    PreconditionViolated,
)
from .lattice import _bits, _by_size, _check_count, _first_without_chicane, _is_index, _mask_lattice

CONTINUA_POINT_CAP = 12


def mask_of(points):
    m = 0
    for p in points:
        m |= 1 << p
    return m


def points_of(mask):
    return list(_bits(mask))


def _is_lattice_family(fam):
    """Is the set of masks closed under pairwise union and intersection?"""
    for a in fam:
        for b in fam:
            if a | b not in fam or a & b not in fam:
                return False
    return True


def _lattice_closure(full, masks):
    """The least union/intersection-closed family holding 0, full and the masks (cut to full)."""
    fam = {0, full}
    fam.update(m & full for m in masks)
    todo = list(fam)
    while todo:
        a = todo.pop()
        for b in list(fam):
            for c in (a | b, a & b):
                if c not in fam:
                    fam.add(c)
                    todo.append(c)
    return frozenset(fam)


def _meet_above(family, mask, full):
    """Intersection of the members of the family that contain mask (full if none do)."""
    acc = full
    for c in family:
        if mask & ~c == 0:
            acc &= c
    return acc


def _preimage_mask(f, mask):
    """The points p whose image f[p] lies in mask."""
    pre = 0
    for p, y in enumerate(f):
        if mask >> y & 1:
            pre |= 1 << p
    return pre


def _fiber_point(full, masks):
    """The unique point of the intersection of the masks within full.

    Raises NonSingletonFiber when that intersection is empty or holds more
    than one point.
    """
    inter = full
    for m in masks:
        inter &= m
    if inter == 0 or inter & (inter - 1):
        raise NonSingletonFiber(f"intersection {points_of(inter)} is not a singleton")
    return inter.bit_length() - 1


def _point_map(count, pairs, full):
    """The point map through a base: each p in 0..count-1 goes to the one
    point (within full) of the meet of the masks c of the (c, s) pairs whose
    s holds p.  NonSingletonFiber at the first p where that meet is not one."""
    return [_fiber_point(full, (c for c, s in pairs if s >> p & 1)) for p in range(count)]


@dataclass(frozen=True)
class FiniteSpace:
    point_count: int
    closed: frozenset  # frozenset of bitmasks

    @property
    def full(self):
        return (1 << self.point_count) - 1

    def closed_sorted(self):
        return _by_size(self.closed)

    def is_closed(self, mask):
        return mask in self.closed

    def closure(self, mask):
        return _meet_above(self.closed, mask, self.full)

    def interior(self, mask):
        return self.full & ~self.closure(self.full & ~mask)


_NO_EMPTY_OR_FULL = "closed family must contain the empty and full sets"


def make_space(point_count, closed_masks):
    """Validate a closed-set family and build the space."""
    _check_count(point_count, "make_space takes a non-negative int number of points", 0)
    full = (1 << point_count) - 1
    fam = frozenset(closed_masks)
    for c in fam:
        if c & ~full:
            raise MalformedTables(f"closed set {c:b} mentions unknown points")
    if 0 not in fam or full not in fam:
        raise MalformedTables(_NO_EMPTY_OR_FULL)
    if not _is_lattice_family(fam):
        raise MalformedTables("closed family must be closed under union and intersection")
    return FiniteSpace(point_count, fam)


def space_from_sets(point_count, sets_of_points):
    """make_space of closed sets given as lists of points."""
    _check_count(point_count, "space_from_sets takes a non-negative int number of points", 0)
    if all(len(set(s)) < point_count for s in sets_of_points):
        # no listed full set: decided before any mask is built, so a huge
        # point count never asks for a huge mask
        raise MalformedTables(_NO_EMPTY_OR_FULL)
    return make_space(point_count, [mask_of(s) for s in sets_of_points])


def discrete_space(n):
    _check_count(n, "discrete_space takes a non-negative int number of points", 0)
    return FiniteSpace(n, frozenset(range(1 << n)))


def generate_space(point_count, generators):
    """Smallest closed-set family containing the generators."""
    _check_count(point_count, "generate_space takes a non-negative int number of points", 0)
    return FiniteSpace(point_count, _lattice_closure((1 << point_count) - 1, generators))


def closed_set_lattice(X):
    """The closed sets under inclusion, as a validated FiniteLattice.

    Element order is (popcount, mask); always distributive.
    """
    return _mask_lattice(X.closed)[0]


def is_connected(X, mask):
    """A closed set is connected iff it has no relative closed 2-partition."""
    if not X.is_closed(mask):
        raise NotClosed(f"{points_of(mask)} is not closed")
    if mask == 0:
        return True
    rel = {c & mask for c in X.closed}
    for a in rel:
        if a == 0 or a == mask:
            continue
        b = mask & ~a
        if b in rel:
            return False
    return True


def continua(X):
    """All nonempty closed connected subsets, sorted canonically."""
    if X.point_count > CONTINUA_POINT_CAP:
        raise PreconditionViolated(f"continua enumeration capped at {CONTINUA_POINT_CAP} points")
    return [c for c in X.closed_sorted() if c != 0 and is_connected(X, c)]


def is_hereditarily_indecomposable(X):
    """Whenever two continua meet, one contains the other."""
    cs = continua(X)
    for i, a in enumerate(cs):
        for b in cs[i + 1 :]:
            if a & b and a & ~b and b & ~a:
                return False, (a, b)
    return True, None


def space_chicane(X, c, d, f, g, closed_list=None):
    """A closed triple (X0, X1, X2) witnessing crookedness for (c,d,f,g), or None.

    Only X0 and X2 need searching: given them, the best X1 is the closure of
    the uncovered remainder, since every X1 constraint is monotone downward.
    """
    fam = closed_list if closed_list is not None else X.closed_sorted()
    for x0 in fam:
        if c & ~x0 or x0 & d:
            continue
        for x2 in fam:
            if d & ~x2 or x0 & x2 or x2 & c:
                continue
            x1 = X.closure(X.full & ~(x0 | x2))
            if (
                x0 | x1 | x2 == X.full
                and x1 & c == 0
                and x1 & d == 0
                and x0 & x1 & g == 0
                and x1 & x2 & f == 0
            ):
                return x0, x1, x2
    return None


def is_crooked_between(X, c, d):
    """Chicane triples exist for every (f, g) pushing away from c and d."""
    if not (X.is_closed(c) and X.is_closed(d)):
        raise PreconditionViolated("c and d must be closed")
    if c == 0 or d == 0 or c & d:
        raise PreconditionViolated("c and d must be disjoint and nonempty")
    fam = X.closed_sorted()
    table = {}
    for f in fam:
        if f & c:
            continue
        for g in fam:
            if g & d:
                continue
            table[(f, g)] = space_chicane(X, c, d, f, g, fam)
    ok = all(v is not None for v in table.values())
    return ok, table


def _pliand_chicanes(X, family):
    """(True, None) if every pliand foursome drawn from the family has a
    chicane, else (False, the first foursome without one, in family order)."""
    fam = X.closed_sorted()
    perp = [sum(1 << j for j, b in enumerate(family) if not a & b) for a in family]
    above = [sum(1 << j for j, b in enumerate(family) if a != b and not a & ~b) for a in family]
    first = _first_without_chicane(
        perp, above, lambda q: space_chicane(X, *(family[i] for i in q), fam) is not None
    )
    return (True, None) if first is None else (False, tuple(family[i] for i in first))


def chicane_condition(X):
    """Every pliand foursome of closed sets has a chicane (space-level search)."""
    return _pliand_chicanes(X, X.closed_sorted())


def is_base(X, family):
    """Every closed set is an intersection of members of the family."""
    fam = set(family)
    if any(b not in X.closed for b in fam):
        return False
    return all(_meet_above(fam, c, X.full) == c for c in X.closed)


def base_restricted_HI(X, base):
    """Chicane condition with foursomes drawn from a meet-closed base only."""
    base = _by_size(set(base))
    for a in base:
        for b in base:
            if a & b not in base:
                raise NotABase("base must be closed under intersection")
    if not is_base(X, base):
        raise NotABase("family does not generate all closed sets by intersection")
    return _pliand_chicanes(X, base)


def is_T1(X):
    return all((1 << p) in X.closed for p in range(X.point_count))


def is_discrete(X):
    return len(X.closed) == 1 << X.point_count


def _check_map(f, X, Y):
    """Raise PreconditionViolated unless f is a sequence of X.point_count point indices of Y."""
    n = Y.point_count
    if not isinstance(f, Sequence) or len(f) != X.point_count or not all(_is_index(y, n) for y in f):
        raise PreconditionViolated(f"{f!r} is not a sequence of {X.point_count} point indices in 0..{n - 1}")


def is_continuous(f, X, Y):
    """Preimage of every closed set of Y is closed in X."""
    _check_map(f, X, Y)
    for c in Y.closed:
        if _preimage_mask(f, c) not in X.closed:
            return False
    return True


def is_surjective(f, X, Y):
    _check_map(f, X, Y)
    return set(f) == set(range(Y.point_count))


def image_mask(f, mask):
    out = 0
    for p in points_of(mask):
        out |= 1 << f[p]
    return out


def is_weakly_confluent(f, X, Y):
    """Every continuum of Y is the image of a continuum of X."""
    if not is_continuous(f, X, Y):
        raise NotContinuous("map is not continuous")
    if not is_surjective(f, X, Y):
        raise NotSurjective("map is not onto")
    images = {image_mask(f, c) for c in continua(X)}
    for c in continua(Y):
        if c not in images:
            return False, c
    return True, None


SPACE_POINT_CAP = 6


def _admit(m, fam, apart):
    """The family fam (a bitset over masks) with m put in and the
    intersections that forces, or 0 when a union with m was left out.

    apart is the bitset of the masks above m that do not contain m: only
    they give a union other than themselves and an intersection other than m.
    """
    fam |= 1 << m
    rest = fam & apart
    while rest:
        low = rest & -rest
        rest ^= low
        a = low.bit_length() - 1
        if not fam >> (a | m) & 1:
            return 0
        fam |= 1 << (a & m)
    return fam


def _topologies(n):
    """Every closed-set family on n labeled points, in ascending order of
    the binary number whose bit i says whether the i-th smallest proper
    mask (neither empty nor full) is closed.

    A depth-first search decides the masks from the largest down, each left
    out before it is put in.  Every mask above m is decided when m is put in:
    a union with m is a superset, so the branch dies if that union was left
    out, and an intersection is a subset, still open, which is forced in.
    Each leaf is closed under union and intersection, and every such family
    is a leaf.
    """
    full = (1 << n) - 1
    apart = [sum(1 << a for a in range(m + 1, full) if m & ~a) for m in range(full)]
    stack = [(full - 1, 1 | 1 << full, False)]  # (next mask, family so far, put it in)
    while stack:
        m, fam, put = stack.pop()
        while m > 0:
            if put or fam >> m & 1:
                fam = _admit(m, fam, apart[m])
                if not fam:
                    break
            else:
                stack.append((m, fam, True))
            m, put = m - 1, False
        else:
            yield frozenset(_bits(fam))


@lru_cache(maxsize=None, typed=True)  # typed: all_spaces(True) must not hit all_spaces(1)
def all_spaces(n):
    """Every topology on n labeled points, as closed-set families, in the
    order of `_topologies`; PreconditionViolated for anything but an int in
    0..SPACE_POINT_CAP."""
    if not _is_index(n, SPACE_POINT_CAP + 1):
        raise PreconditionViolated(f"all_spaces takes 0 to {SPACE_POINT_CAP} points, not {n!r}")
    return tuple(FiniteSpace(n, fam) for fam in _topologies(n))
