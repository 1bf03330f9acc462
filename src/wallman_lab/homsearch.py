"""Constructive mapping machinery between lattices and finite spaces.

Two searches live here: bounded-lattice embeddings and base morphisms
satisfying the join-cover and empty-meet conditions (sufficient for building
continuous surjections).  Both are lexicographic-first and deterministic and
run on the backtracking core `lattice._first_assignment`, as do the
isomorphism searches.

Both are forward-checked.  A variable's domain is a bitmask from which the
values placed before it have already removed every value that would break
a condition, and the core walks it lowest bit first: an embedding reads its mask
off the target's preimage rows (`lattice._preimages`), and its candidates
for e have at least as many elements below and above them as e has.  A
base morphism keeps one mask per later base set and one forced meet per
point, the meet of the base sets that hold it in every completion, both
kept by one propagation loop, and drops a branch once a mask or a meet is
empty.  Each removes only values, or branches, that lie in no solution, so
the first answer is the one the unfiltered search finds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

from .errors import NotABase
from .lattice import _bits, _by_size, _check_elements, _first_assignment, _masks, _preimages
from .spaces import (
    _is_lattice_family,
    _meet_above,
    _point_map,
    _preimage_mask,
    is_continuous,
    is_surjective,
    points_of,
)


@dataclass(frozen=True)
class LMorphism:
    """A base map Y-closed-sets -> X-closed-sets good enough to induce a
    continuous surjection X -> Y: empty goes to empty only, covers go to
    covers, and empty intersections go to empty intersections."""

    base: tuple  # masks of Y, union/intersection-closed, containing 0 and Y
    assignment: dict  # base mask of Y -> closed mask of X


# ---------------------------------------------------------------- embeddings


@lru_cache(maxsize=256)
def _embedding_plan(B):
    """(order, positions) for embeddings of B: the search order (bottom,
    top, then the other elements in index order) and, for each position i,
    (down, up, fixes, rows): the sizes of the down-set and the up-set of
    its element, and the meet and join facts p . q = r of B (p < q, neither
    a bound) whose last element sits at i.

    A fix (t, p, q) is a fact whose r is at i: its value must be
    table_t[v_p][v_q].  A row (t, a, b) is a fact whose q is at i: the
    value must lie in the preimage row pre_t[v_a][v_b] (t = 0 for meets,
    1 for joins).  For r earlier than q that is p . x = r, the row
    pre[v_p][v_r]; for r = q, p ^ x = x keeps the down-set of v_p
    (join_pre[v_p][v_p]) and p v x = x its up-set (meet_pre[v_p][v_p]).
    Facts with a bound in them hold in every lattice once the bounds are
    placed, so none are listed.  Equal facts and positions are one object
    across every plan (`_shared`): of the lattices of size 2..7, 24 of 935
    facts and 125 of 499 positions are distinct.
    """
    order = [B.bottom, B.top] + [e for e in B.elements() if e not in (B.bottom, B.top)]
    pos = {e: i for i, e in enumerate(order)}
    fixes = [[] for _ in order]
    rows = [{} for _ in order]  # dicts as ordered sets
    for p in range(2, len(order)):
        for q in range(p + 1, len(order)):
            for t, table in enumerate((B.meet, B.join)):
                r = pos[table[order[p]][order[q]]]
                if r > q:
                    fixes[r].append(_shared((t, p, q)))
                elif r < q:
                    rows[q][_shared((t, p, r))] = None
                else:
                    rows[q][_shared((1 - t, p, p))] = None
    _, _, down, up = _masks(B)
    positions = (
        _shared((down[e].bit_count(), up[e].bit_count(), tuple(f), tuple(r))) for e, f, r in zip(order, fixes, rows)
    )
    return tuple(order), tuple(positions)


@lru_cache(maxsize=4096)
def _shared(item):
    """The first fact or position equal to item, kept for every plan."""
    return item


@lru_cache(maxsize=256)
def _at_least(L):
    """(below, above) for L: below[k] is the mask of the elements with at
    least k elements below them (themselves included), above[k] likewise
    for the elements above them.  The lists stop at the largest size, so a
    threshold past it has no element."""
    _, _, down, up = _masks(L)
    out = []
    for sets in (down, up):
        sizes = [s.bit_count() for s in sets]
        out.append(tuple(sum(1 << x for x, c in enumerate(sizes) if c >= k) for k in range(max(sizes) + 1)))
    return tuple(out)


def _embedding_domain(start, fixes, rows, tables, pres):
    """The candidates of one position: the mask of the unused elements of
    start that every fix and row of the position allows."""

    def domain(values, used):
        mask = start & ~used
        for t, p, q in fixes:
            mask &= 1 << tables[t][values[p]][values[q]]
        for t, a, b in rows:
            if not mask:
                break
            mask &= pres[t][values[a]][values[b]]
        return mask

    return domain


def _mark_used(i, t, values, used):
    return used | 1 << t


def find_lattice_embedding(B, L):
    """Injective bound-preserving lattice homomorphism B -> L, or None.

    Backtracking over B's bottom, top, then the other elements in index
    order, candidate targets in ascending order; the first complete
    assignment is returned.  Each position's candidates are read off a
    mask: a meet or join fact p . q = r of B whose other two elements are
    already placed either fixes the value or keeps only a preimage row of
    L (`_embedding_plan`), so no candidate that breaks a fact is tried.

    An embedding is injective and keeps the order, so it maps the down-set
    of e one-to-one into that of its image, and likewise the up-set: a
    candidate for e has at least as many elements below it, and above it,
    as e has (`_at_least`).  Those it lacks lie in no embedding, so the
    first one found is unchanged; a position left with no candidate, as
    when B has more elements than L, answers None before any search.
    """
    order, positions = _embedding_plan(B)
    below, above = _at_least(L)
    tables, pres = (L.meet, L.join), _preimages(L)
    domains = []
    for start, (down, up, fixes, rows) in zip([1 << L.bottom, 1 << L.top] + [-1] * (len(order) - 2), positions):
        start &= (below[down] if down < len(below) else 0) & (above[up] if up < len(above) else 0)
        if not start:
            return None
        domains.append(_embedding_domain(start, fixes, rows, tables, pres))
    values = _first_assignment(domains, _mark_used, 0)
    return None if values is None else dict(zip(order, values))


def surjection_from_embedding(base_sets, phi, W, X):
    """Map W = wallman_space(L) onto X through an embedded closed base.

    base_sets: masks of X, union/intersection-closed with 0 and the full set,
    indexed as a lattice; phi: index -> element of L, an embedding of that
    base lattice.  The image of ultrafilter p is the unique point of
    the intersection of the base sets whose phi-value lies in p.
    Returns (f, report) with f indexed by ultrafilter position.
    """
    _check_elements(W.lattice, (phi[i] for i in range(len(base_sets))))
    pairs = [(c, W.base[phi[i]]) for i, c in enumerate(base_sets)]
    f = _point_map(len(W.points), pairs, X.full)
    onto = set(f) == set(range(X.point_count))
    preimage_identity = all(_preimage_mask(f, c) == s for c, s in pairs)
    report = {"onto": onto, "preimage_identity": preimage_identity}
    return f, report


# ---------------------------------------------------------------- L-morphisms


def _atom_count(family):
    """The number of minimal nonempty members of a family of masks in
    (popcount, mask) order: a member is one when no minimal member found
    before it lies inside it."""
    atoms = []
    for m in family:
        if m and all(a & ~m for a in atoms):
            atoms.append(m)
    return len(atoms)


@lru_cache(maxsize=512)
def _valid_base(Y, base):
    """(base in (popcount, mask) order, its atom count) for a base of Y, a
    tuple of masks.  Only valid bases are kept: a refused one raises
    NotABase again on every call."""
    sset = set(base)
    base = tuple(_by_size(sset))
    if 0 not in sset or Y.full not in sset:
        raise NotABase("base must contain the empty and full sets")
    for a in base:
        if a not in Y.closed:
            raise NotABase(f"{points_of(a)} is not closed")
    if not _is_lattice_family(sset):
        raise NotABase("base must be closed under union and intersection")
    if any(_meet_above(base, c, Y.full) != c for c in Y.closed):
        raise NotABase("family does not generate all closed sets by intersection")
    return base, _atom_count(base)


@lru_cache(maxsize=512)
def _closed_rows(X):
    """(closed, points, covers, holds, minimal) for X: its closed sets in
    (popcount, mask) order; for the k-th of them the points it holds and the
    mask of the indices of the closed sets u with closed[k] | u = X; for
    each point the mask of the indices of the closed sets holding it; and
    the number of minimal nonempty closed sets."""
    closed = tuple(X.closed_sorted())
    holds = [sum(1 << k for k, t in enumerate(closed) if t >> x & 1) for x in range(X.point_count)]
    points, covers = [], []
    for t in closed:
        points.append(tuple(_bits(t)))
        cover = (1 << len(closed)) - 1  # the u holding every point off t
        for x in _bits(X.full & ~t):
            cover &= holds[x]
        covers.append(cover)
    return closed, tuple(points), tuple(covers), tuple(holds), _atom_count(closed)


def _candidates(i, values, state):
    return state[0][i]


def find_L_morphism(Y, base, X):
    """Search for an LMorphism from a closed base of Y into Hyp(X), or None.

    Conditions: the empty set maps to the empty set and nothing else does;
    F union G = Y forces phi(F) union phi(G) = X; every subfamily with empty
    intersection keeps an empty intersection.  Assignments are explored in
    lexicographic target order and the first solution wins.

    The last condition is checked point by point: the base sets whose images
    hold a point x must meet, as a subfamily with empty intersection whose
    images share x lies inside that point's family.  Each later base set
    keeps a mask of its candidates over the closed sets of X, and each point
    x its forced meet sure[x]: the meet of the base sets that hold x in
    every completion, those assigned a set holding x and those all of whose
    candidates hold it.  After each assignment t, a cover partner keeps only
    the u with t | u = X; then one loop over the sets whose candidates
    shrank meets sure[x] with each set forced to hold x, and where sure[x]
    shrinks, every set that misses it loses the u holding x.  An empty meet
    or mask prunes a branch that holds no solution, so the first morphism is
    unchanged.

    No search is made when the base has more atoms than X has minimal
    nonempty closed sets.  Two distinct atoms of the base meet in a smaller
    member, the empty set, so their images are disjoint nonempty closed
    sets of X, and each holds a minimal nonempty closed set of its own.
    """
    base, atoms = _valid_base(Y, tuple(base))
    closed, points, covers, holds, minimal = _closed_rows(X)
    if atoms > minimal:
        return None
    full_y = Y.full
    # partners[i]: the j > i with base[j] | base[i] = Y; a pair j <= i was
    # checked when base[i] got its candidates, and base[i] | base[i] = Y only for Y
    partners = [[j for j in range(i + 1, len(base)) if b | base[j] == full_y] for i, b in enumerate(base)]
    # disjoint[m]: the base positions j with base[j] & m == 0, for each forced
    # meet m met so far; the base is closed under meets, so m is a base set
    disjoint = {full_y: 1}
    avoid = [~h for h in holds]  # avoid[x]: the closed sets of X not holding x

    def step(i, k, values, state):
        # sure[x]: the meet of the base sets that hold x in every completion
        doms, sure = state
        doms, work = list(doms), [i]  # work: the sets whose candidates shrank here
        doms[i] = 1 << k
        cover = covers[k]
        for j in partners[i]:
            d = doms[j] & cover
            if d != doms[j]:
                if not d:
                    return None
                doms[j] = d
                work.append(j)
        new = sure
        for j in work:
            # a set's forced points lie in its first candidate
            d, b = doms[j], base[j]
            for x in points[(d & -d).bit_length() - 1]:
                old = new[x]
                m = old & b
                if m == old or d & avoid[x]:
                    continue
                # m != 0: a base set disjoint from sure[x] has lost every candidate holding x
                if new is sure:
                    new = list(sure)
                new[x] = m
                dead = disjoint.get(m)
                if dead is None:
                    dead = disjoint[m] = sum(1 << j for j, c in enumerate(base) if not c & m)
                for h in _bits(dead & ~disjoint[old]):
                    e = doms[h] & avoid[x]
                    if e != doms[h]:
                        if not e:
                            return None
                        doms[h] = e
                        work.append(h)
        return doms, new

    nonzero = (1 << len(closed)) - 2  # closed[0] is the empty set
    whole = 1 << len(closed) - 1 if X.full else 0  # X, unless X has no points
    doms = [1 if b == 0 else whole if b == full_y else nonzero for b in base]
    domains = [partial(_candidates, i) for i in range(len(base))]
    values = _first_assignment(domains, step, (doms, [full_y] * X.point_count))
    return None if values is None else LMorphism(tuple(base), {b: closed[k] for b, k in zip(base, values)})


def surjection_from_morphism(Y, phi, X):
    """Build and verify the point map X -> Y induced by an LMorphism.

    f(x) = the unique point of the intersection of the base sets whose
    phi-image contains x.  The report re-checks fibers, continuity,
    surjectivity, and the preimage identity
    f^{-1}[F] = intersection of {phi(G) : F inside Int G} for closed F.
    """
    base = list(phi.base)
    f = _point_map(X.point_count, [(b, phi.assignment[b]) for b in base], Y.full)
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


def preimage_morphism(f, X, Y):
    """The LMorphism induced by a continuous surjection: F -> f^{-1}[F]."""
    base = _valid_base(Y, tuple(Y.closed_sorted()))[0]
    return LMorphism(tuple(base), {b: _preimage_mask(f, b) for b in base})
