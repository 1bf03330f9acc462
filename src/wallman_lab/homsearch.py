"""Constructive mapping machinery between lattices and finite spaces.

Two searches live here: bounded-lattice embeddings and base morphisms
satisfying the join-cover and empty-meet conditions (sufficient for building
continuous surjections).  Both are lexicographic-first and deterministic and
run on the backtracking core `lattice._first_assignment`, as do the
isomorphism searches.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotABase
from .lattice import _by_size, _first_assignment
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

    Backtracking over B's bottom, top, then the other elements in index
    order, candidate targets in ascending order; the first complete
    assignment is returned.  Each meet or join fact p . q = r of B is
    checked once its last element is assigned.
    """
    order = [B.bottom, B.top] + [e for e in B.elements() if e not in (B.bottom, B.top)]
    pos = {e: i for i, e in enumerate(order)}
    checks = [[] for _ in order]  # checks[i]: (p, q, r, table) by position, last assigned at i
    for p in range(len(order)):
        for q in range(p + 1, len(order)):
            for table_b, table_l in ((B.meet, L.meet), (B.join, L.join)):
                r = pos[table_b[order[p]][order[q]]]
                checks[max(q, r)].append((p, q, r, table_l))

    def step(i, t, values, used):
        if used >> t & 1:
            return None
        for p, q, r, table in checks[i]:
            if table[values[p]][values[q]] != values[r]:
                return None
        return used | 1 << t

    domains = [[L.bottom], [L.top]] + [L.elements()] * (len(order) - 2)
    values = _first_assignment(domains, step, 0)
    return None if values is None else dict(zip(order, values))


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
    full_y, full_x = Y.full, X.full
    # partners[i]: the j <= i with base[j] | base[i] = Y; the empty set has none to check
    partners = [[j for j in range(i + 1) if b | base[j] == full_y] if b else [] for i, b in enumerate(base)]
    nonzero = [t for t in X.closed_sorted() if t]
    whole = [t for t in nonzero if t == full_x]  # [X], unless X has no points
    domains = [[0] if b == 0 else whole if b == full_y else nonzero for b in base]

    def step(i, t, values, meet_at):
        # meet_at[x]: the meet of the base sets assigned so far whose image holds x
        for j in partners[i]:
            if t | values[j] != full_x:
                return None
        b = base[i]
        meet_at = [m & b if t >> x & 1 else m for x, m in enumerate(meet_at)]
        return None if t and 0 in meet_at else meet_at

    values = _first_assignment(domains, step, [full_y] * X.point_count)
    return None if values is None else LMorphism(tuple(base), dict(zip(base, values)))


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
    interiors = [Y.interior(b) for b in base]
    identity_ok = True
    for c in Y.closed:
        rhs = X.full
        for b, inner in zip(base, interiors):
            if c & ~inner == 0:
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
