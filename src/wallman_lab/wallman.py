"""Ultrafilter enumeration and the represented space of a distributive lattice.

In a finite lattice every filter is principal, so filters are exactly the
up-sets of nonzero elements and ultrafilters the up-sets of atoms.  The
ultrafilters are still found as the maximal filters, not read off the
atoms, so that `stone_space` checks the one against the other.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NonSingletonFiber, NotABase, NotBoolean, NotDistributive, PostconditionFailed
from .lattice import FiniteLattice, _check_elements, _mask_lattice, is_distributive
from .spaces import (
    _fiber_point,
    _lattice_closure,
    _meet_above,
    closed_set_lattice,
    is_connected,
    is_continuous,
    is_discrete,
    is_surjective,
    make_space,
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
    ups = (frozenset(b for b in L.elements() if L.leq(a, b)) for a in L.elements() if a != L.bottom)
    return sorted(map(Filter, ups), key=lambda f: sorted(f.members))


def is_filter(L, members):
    _check_elements(L, members)
    if L.bottom in members or not members:
        return False
    for a in members:
        for b in members:
            if L.meet[a][b] not in members:
                return False
        for b in L.elements():
            if L.leq(a, b) and b not in members:
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
    base = []
    for a in L.elements():
        mask = 0
        for i, u in enumerate(points):
            if a in u:
                mask |= 1 << i
        base.append(mask)
    base = tuple(base)
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
    from .lattice import is_disjunctive

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
    from .lattice import is_normal

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
    fam = X.closed_sorted()
    L = closed_set_lattice(X)
    W = wallman_space(L)
    # map u -> its point; check bijectivity and that base sets mirror closed sets
    try:
        point_map = [_fiber_point(X.full, (fam[a] for a in u.members)) for u in W.points]
    except NonSingletonFiber as err:
        return False, f"ultrafilter {err}"
    if sorted(point_map) != list(range(X.point_count)):
        return False, "ultrafilter-to-point map is not a bijection"
    image_closed = set()
    for a in L.elements():
        img = 0
        for i in range(len(W.points)):
            if W.base[a] >> i & 1:
                img |= 1 << point_map[i]
        image_closed.add(img)
    if image_closed != set(X.closed):
        return False, "base sets do not map onto the closed family"
    return True, None


def _complement(L, a):
    """The first b with a ^ b = 0 and a v b = 1, or None."""
    return next(
        (b for b in L.elements() if L.meet[a][b] == L.bottom and L.join[a][b] == L.top), None
    )


def is_boolean(L):
    ok, _ = is_distributive(L)
    if not ok:
        return False
    return all(_complement(L, a) is not None for a in L.elements())


def atoms(L):
    return [
        a
        for a in L.elements()
        if a != L.bottom
        and not any(b != L.bottom and b != a and L.leq(b, a) for b in L.elements())
    ]


def stone_space(B):
    """Wallman space of a Boolean algebra; verifies clopenness and atom count."""
    if not is_boolean(B):
        raise NotBoolean("input is not a finite Boolean algebra")
    W = wallman_space(B)
    npts = len(W.points)
    full = (1 << npts) - 1
    for a in B.elements():
        if W.base[_complement(B, a)] != full & ~W.base[a]:
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
    f = [_fiber_point(X.full, (X.closure(members[a]) for a in u.members)) for u in W.points]
    if not is_continuous(f, Y, X):
        raise PostconditionFailed("Alexandroff preimage map is not continuous")
    if not is_surjective(f, Y, X):
        raise PostconditionFailed("Alexandroff preimage map is not onto")
    return Y, f
