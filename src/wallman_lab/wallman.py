"""Ultrafilter enumeration and the represented space of a distributive lattice.

In a finite lattice every filter is principal, so filters are exactly the
up-sets of nonzero elements and ultrafilters the up-sets of atoms.  The
ultrafilters are still found as the maximal filters, not read off the
atoms, so that `stone_space` checks the one against the other.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NonSingletonFiber, NotABase, NotBoolean, NotDistributive, PostconditionFailed
from .lattice import (
    FiniteLattice,
    _bits,
    _check_elements,
    _mask_lattice,
    _masks,
    is_disjunctive,
    is_distributive,
    is_normal,
)
from .spaces import (
    _lattice_closure,
    _meet_above,
    _point_map,
    closed_set_lattice,
    image_mask,
    is_connected,
    is_continuous,
    is_discrete,
    is_surjective,
    make_space,
    mask_of,
)


@dataclass(frozen=True)
class Filter:
    members: frozenset

    def __contains__(self, a):
        return a in self.members


@dataclass(frozen=True)
class WallmanSpace:
    lattice: FiniteLattice
    points: tuple  # tuple of Filter, canonical order (sorted member sets)
    base: tuple  # base[a] = bitmask of points containing element a

    def space(self):
        return make_space(len(self.points), set(self.base))


def filters(L):
    """All filters: up-sets of nonzero elements, sorted by member set."""
    ups = (frozenset(_bits(u)) for a, u in enumerate(_masks(L)[3]) if a != L.bottom)
    return sorted(map(Filter, ups), key=lambda f: sorted(f.members))


def is_filter(L, members):
    _check_elements(L, members)
    if L.bottom in members or not members:
        return False
    up = _masks(L)[3]
    inside = sum(1 << a for a in set(members))
    for a in members:
        if up[a] & ~inside:
            return False
        for b in members:
            if not inside >> L.meet[a][b] & 1:
                return False
    return True


def ultrafilters(L):
    """Maximal filters, canonical order."""
    fs = filters(L)
    return [f for f in fs if not any(f.members < g.members for g in fs)]


def wallman_space(L):
    """The represented space: ultrafilter points with closed base c(a)."""
    ok, _ = is_distributive(L)
    if not ok:
        raise NotDistributive("Wallman construction needs a distributive lattice")
    points = tuple(ultrafilters(L))
    base = tuple(mask_of(i for i, u in enumerate(points) if a in u) for a in L.elements())
    for a in L.elements():
        for b in L.elements():
            if base[L.meet[a][b]] != base[a] & base[b]:
                raise PostconditionFailed(f"Wallman base misses the meet of {a} and {b}")
            if base[L.join[a][b]] != base[a] | base[b]:
                raise PostconditionFailed(f"Wallman base misses the join of {a} and {b}")
    if base[L.bottom] != 0 or base[L.top] != (1 << len(points)) - 1:
        raise PostconditionFailed("Wallman base misses a bound")
    return WallmanSpace(L, points, base)


def canonical_hom_report(L):
    """Injectivity of a -> c(a) versus disjunctivity; the two must agree."""
    W = wallman_space(L)
    injective = len(set(W.base)) == L.n
    disjunctive, _ = is_disjunctive(L)
    return {
        "is_injective": injective,
        "is_disjunctive": disjunctive,
        "agree": injective == disjunctive,
    }


def hausdorff_normal_report(L):
    """Hausdorffness of the represented space versus lattice normality."""
    W = wallman_space(L)
    X = W.space()
    normal, _ = is_normal(L)
    return {"wL_hausdorff": is_discrete(X), "L_normal": normal}


def wallman_connected(L):
    W = wallman_space(L)
    X = W.space()
    return is_connected(X, X.full)


def self_representation_check(X):
    """Is X homeomorphic to the representation of its own closed-set lattice?

    The map sends an ultrafilter to the unique point in its intersection;
    returns (bool, diagnostic).
    """
    W = wallman_space(closed_set_lattice(X))
    # map u -> its point; check bijectivity and that base sets mirror closed sets
    try:
        point_map = _point_map(len(W.points), list(zip(X.closed_sorted(), W.base)), X.full)
    except NonSingletonFiber as err:
        return False, f"ultrafilter {err}"
    if sorted(point_map) != list(range(X.point_count)):
        return False, "ultrafilter-to-point map is not a bijection"
    if {image_mask(point_map, b) for b in W.base} != set(X.closed):
        return False, "base sets do not map onto the closed family"
    return True, None


def is_boolean(L):
    """Distributive and complemented; the masks are read only once L is distributive."""
    if not is_distributive(L)[0]:
        return False
    perp, cotop, _, _ = _masks(L)
    return all(p & c for p, c in zip(perp, cotop))  # every element has a complement


def atoms(L):
    # down[a] always holds the bottom and a, so it is {bottom, a} iff it has two members
    return [a for a, d in enumerate(_masks(L)[2]) if d.bit_count() == 2]


def stone_space(B):
    """Wallman space of a Boolean algebra; verifies clopenness and atom count."""
    if not is_boolean(B):
        raise NotBoolean("input is not a finite Boolean algebra")
    perp, cotop, _, _ = _masks(B)
    W = wallman_space(B)
    npts = len(W.points)
    full = (1 << npts) - 1
    for a, (p, c) in enumerate(zip(perp, cotop)):
        if W.base[next(_bits(p & c))] != full & ~W.base[a]:
            raise PostconditionFailed(f"Stone base set of {a} is not clopen")
    if npts != len(atoms(B)):
        raise PostconditionFailed("Stone space has not one point per atom")
    return W


def boolean_subalgebra_generated(universe_size, family):
    """Least subalgebra of the power set containing the family, as a lattice."""
    full = (1 << universe_size) - 1
    gens = [m & full for m in family]
    # by De Morgan the union/intersection closure of the generators and their
    # complements is already closed under complement
    return _mask_lattice(_lattice_closure(full, gens + [full & ~m for m in gens]))


def alexandroff_preimage(X, family):
    """Zero-dimensional preimage: Stone space of the generated subalgebra.

    Returns (Y, f) with f continuous and onto X; the point of f(u) is the
    unique one in the intersection of the closures of u's members.
    """
    algebra, members = boolean_subalgebra_generated(X.point_count, family)
    # the generated algebra must still present every closed set
    if any(_meet_above(members, c, X.full) != c for c in X.closed):
        raise NotABase("generated algebra cannot present every closed set")
    W = stone_space(algebra)  # also verifies that the base sets are clopen
    Y = W.space()
    f = _point_map(len(W.points), [(X.closure(m), b) for m, b in zip(members, W.base)], X.full)
    if not is_continuous(f, Y, X):
        raise PostconditionFailed("Alexandroff preimage map is not continuous")
    if not is_surjective(f, Y, X):
        raise PostconditionFailed("Alexandroff preimage map is not onto")
    return Y, f
