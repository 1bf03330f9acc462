"""Constructive mapping machinery between lattices and finite spaces.

Three searches live here: bounded-lattice embeddings, base morphisms
satisfying the join-cover and empty-meet conditions (sufficient for building
continuous surjections), and a brute-force oracle over all point maps.  All
searches are lexicographic-first and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotABase
from .lattice import _by_size
from .spaces import (
    _fiber_point,
    _is_lattice_family,
    _meet_above,
    _preimage_mask,
    is_continuous,
    is_surjective,
    mask_of,
    points_of,
)
from .wallman import ultrafilters


@dataclass(frozen=True)
class LMorphism:
    """A base map Y-closed-sets -> X-closed-sets good enough to induce a
    continuous surjection X -> Y: empty goes to empty only, covers go to
    covers, and empty intersections go to empty intersections."""

    base: tuple  # masks of Y, union/intersection-closed, containing 0 and Y
    assignment: dict  # base mask of Y -> closed mask of X


# ---------------------------------------------------------------- embeddings


def find_lattice_embedding(B, L):
    """Injective bound-preserving lattice homomorphism B -> L, or None.

    Backtracking over B's elements in index order, candidate targets in
    ascending order; the first complete assignment is returned.
    """
    order = [B.bottom, B.top] + [
        e for e in B.elements() if e not in (B.bottom, B.top)
    ]
    assignment = {}
    used = set()

    def candidates(e):
        if e == B.bottom:
            return [L.bottom]
        if e == B.top:
            return [L.top]
        return list(L.elements())

    def consistent(e, t):
        trial = dict(assignment)
        trial[e] = t
        for e1, t1 in trial.items():
            for e2, t2 in trial.items():
                m, j = B.meet[e1][e2], B.join[e1][e2]
                if m in trial and L.meet[t1][t2] != trial[m]:
                    return False
                if j in trial and L.join[t1][t2] != trial[j]:
                    return False
        return True

    def extend(i):
        if i == len(order):
            return True
        e = order[i]
        for t in candidates(e):
            if t in used or not consistent(e, t):
                continue
            assignment[e] = t
            used.add(t)
            if extend(i + 1):
                return True
            used.discard(t)
            del assignment[e]
        return False

    if extend(0):
        return dict(assignment)
    return None


def surjection_from_embedding(base_sets, phi, L, X):
    """Map the ultrafilter space of L onto X through an embedded closed base.

    base_sets: masks of X, union/intersection-closed with 0 and the full set,
    indexed as a lattice; phi: index -> element of L, an embedding of that
    base lattice.  The image of ultrafilter p is the unique point of
    the intersection of the base sets whose phi-value lies in p.
    Returns (f, report) with f indexed by ultrafilter position.
    """
    points = ultrafilters(L)
    f = [
        _fiber_point(X.full, (c for i, c in enumerate(base_sets) if phi[i] in p.members))
        for p in points
    ]
    onto = set(f) == set(range(X.point_count))
    preimage_identity = all(
        _preimage_mask(f, c) == mask_of(k for k, p in enumerate(points) if phi[i] in p.members)
        for i, c in enumerate(base_sets)
    )
    report = {"onto": onto, "preimage_identity": preimage_identity}
    return f, report


# ---------------------------------------------------------------- L-morphisms


def _check_base(Y, base):
    sset = set(base)
    base = _by_size(sset)
    if 0 not in sset or Y.full not in sset:
        raise NotABase("base must contain the empty and full sets")
    for a in base:
        if a not in Y.closed:
            raise NotABase(f"{points_of(a)} is not closed")
    if not _is_lattice_family(sset):
        raise NotABase("base must be closed under union and intersection")
    if any(_meet_above(base, c, Y.full) != c for c in Y.closed):
        raise NotABase("family does not generate all closed sets by intersection")
    return base


def find_L_morphism(Y, base, X):
    """Search for an LMorphism from a closed base of Y into Hyp(X), or None.

    Conditions: the empty set maps to the empty set and nothing else does;
    F union G = Y forces phi(F) union phi(G) = X; every subfamily with empty
    intersection keeps an empty intersection.  Assignments are explored in
    lexicographic target order and the first solution wins.

    The last condition is checked point by point: for each point x of X the
    base sets whose image holds x must still meet.  A subfamily with empty
    intersection whose images share a point x lies inside that point's
    family, so the two checks prune the same partial assignments.
    """
    base = _check_base(Y, base)
    n = len(base)
    full_y = Y.full
    cover_pairs = [
        (i, j) for i in range(n) for j in range(i, n) if base[i] | base[j] == full_y
    ]
    targets = X.closed_sorted()
    full_x = X.full
    assignment = [None] * n

    def ok(i, t):
        if base[i] == 0:
            return t == 0
        if t == 0:
            return False
        if base[i] == full_y and t != full_x:
            return False
        for a, b in cover_pairs:
            if a != i and b != i:
                continue
            other = a + b - i
            if other == i:
                if t != full_x:
                    return False
            elif assignment[other] is not None and t | assignment[other] != full_x:
                return False
        return True

    def extend(i, meet_at):
        # meet_at[x]: the meet of the base sets assigned so far whose image holds x
        if i == n:
            return True
        b = base[i]
        for t in targets:
            if ok(i, t) and all(m & b for x, m in enumerate(meet_at) if t >> x & 1):
                assignment[i] = t
                if extend(i + 1, [m & b if t >> x & 1 else m for x, m in enumerate(meet_at)]):
                    return True
                assignment[i] = None
        return False

    if extend(0, [full_y] * X.point_count):
        return LMorphism(tuple(base), dict(zip(base, assignment)))
    return None


def surjection_from_morphism(Y, phi, X):
    """Build and verify the point map X -> Y induced by an LMorphism.

    f(x) = the unique point of the intersection of the base sets whose
    phi-image contains x.  The report re-checks fibers, continuity,
    surjectivity, and the preimage identity
    f^{-1}[F] = intersection of {phi(G) : F inside Int G} for closed F.
    """
    base = list(phi.base)
    f = [
        _fiber_point(Y.full, (b for b in base if phi.assignment[b] >> x & 1))
        for x in range(X.point_count)
    ]
    continuous = is_continuous(f, X, Y)
    onto = is_surjective(f, X, Y)
    identity_ok = True
    for c in Y.closed:
        rhs = X.full
        for b in base:
            if c & ~Y.interior(b) == 0:
                rhs &= phi.assignment[b]
        if _preimage_mask(f, c) != rhs:
            identity_ok = False
    report = {
        "continuous": continuous,
        "surjective": onto,
        "preimage_identity": identity_ok,
    }
    return f, report


def preimage_morphism(f, X, Y, base=None):
    """The LMorphism induced by a continuous surjection: F -> f^{-1}[F]."""
    if base is None:
        base = Y.closed_sorted()
    base = _check_base(Y, base)
    return LMorphism(tuple(base), {b: _preimage_mask(f, b) for b in base})


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
