"""Isomorph-free generation of posets, meet-semilattices and bounded lattices.

Posets are represented by ``down``: a tuple where down[a] is the bitmask of
{b : b <= a} including a itself.  Generation adds one new maximal element at a
time; a structure minus a maximal element stays in the class, so the recursion
is complete.  Duplicates are removed with an invariant bucket plus an explicit
isomorphism search, which keeps the whole pipeline deterministic: each
candidate's up-masks are computed once, by walking the bits of its down-masks,
and give the profile (|down(a)|, |up(a)|) per element that keys the bucket and
restricts the isomorphism search.  Lattice tables are read off by mask lookup:
meet[a][b] is the element whose down-mask is down[a] & down[b], and join[a][b]
the one whose up-mask is up[a] & up[b].

Each level of lattices is built on demand.  Dedupe keeps the first candidate
of each class in generation order, so a level can be handed out one lattice
at a time from the complete level below it, in the same order as when it is
built whole: `iter_lattices(n)` reads as far as its caller goes, and
`lattices_of_size(n)` drains the level.
"""

from __future__ import annotations

from functools import lru_cache

from .lattice import Poset, _downsets, _first_assignment, validate


def _up_masks(down):
    """up[a] is the bitmask of {b : a <= b}, read off the down-masks bit by bit."""
    up = [0] * len(down)
    for b, d in enumerate(down):
        bit = 1 << b
        while d:
            low = d & -d
            up[low.bit_length() - 1] |= bit
            d ^= low
    return up


def _profile(down):
    """(|down(a)|, |up(a)|) for each element a: the invariant behind dedupe."""
    return [(d.bit_count(), u.bit_count()) for d, u in zip(down, _up_masks(down))]


def _poset_isomorphic(down_a, prof_a, down_b, prof_b):
    """The first order isomorphism that keeps each element's profile, as the
    list of images of a's elements, or None.

    The two profiles are equal as multisets, as within one dedupe bucket.
    """
    by_profile = {}
    for j, p in enumerate(prof_b):
        by_profile.setdefault(p, []).append(j)

    def step(i, j, values, used):
        if used >> j & 1:
            return None
        da, db = down_a[i], down_b[j]
        for k in range(i):
            mk = values[k]
            if down_a[k] >> i & 1 != down_b[mk] >> j & 1 or da >> k & 1 != db >> mk & 1:
                return None
        return used | 1 << j

    return _first_assignment([by_profile.get(p, ()) for p in prof_a], step, 0)


def _dedupe(candidates):
    """The first candidate of each isomorphism class, in candidate order."""
    buckets = {}
    for down in candidates:
        prof = _profile(down)
        bucket = buckets.setdefault(tuple(sorted(prof)), [])
        if any(_poset_isomorphic(down, prof, other, other_prof) is not None for other, other_prof in bucket):
            continue
        bucket.append((down, prof))
        yield down


@lru_cache(maxsize=None)
def _posets_raw(m):
    """All posets on m elements, one per isomorphism class, as down-mask tuples."""
    if m == 0:
        return ((),)
    if m == 1:
        return ((1,),)
    candidates = []
    for parent in _posets_raw(m - 1):
        for dset in _downsets(parent):
            child = parent + (dset | (1 << (m - 1)),)
            candidates.append(child)
    return tuple(_dedupe(candidates))


def posets_up_to_iso(m):
    """Posets on m elements up to isomorphism, as validated Poset values."""
    out = []
    for down in _posets_raw(m):
        le = tuple(tuple(bool(down[b] >> a & 1) for b in range(m)) for a in range(m))
        out.append(Poset(m, le).validate())
    return out


def _semilattice_candidates(parents):
    """Each parent meet-semilattice (element 0 the bottom) with one new
    maximal element added in every way that keeps it a meet-semilattice.

    A new maximal element with (exclusive) down-set dset needs a meet with
    every existing element d: the down-closed set dset & d must have a
    maximum, that is, be some element's down-mask.
    """
    for parent in parents:
        down_masks = set(parent)
        new = 1 << len(parent)
        for dset in _downsets(parent):
            if all((dset & d) in down_masks for d in parent):
                yield parent + (dset | new,)


def _lattice_from_semilattice(down):
    """Adjoin a top to a meet-semilattice and read off both tables.

    meet[a][b] is the element whose down-mask is downs[a] & downs[b], and
    join[a][b] the element whose up-mask is ups[a] & ups[b].
    """
    n = len(down) + 1
    downs = down + ((1 << n) - 1,)
    ups = _up_masks(downs)
    by_down = {d: i for i, d in enumerate(downs)}
    by_up = {u: i for i, u in enumerate(ups)}
    meet = tuple(tuple(by_down[da & db] for db in downs) for da in downs)
    join = tuple(tuple(by_up[ua & ub] for ub in ups) for ua in ups)
    names = tuple(f"e{i}" for i in range(n))
    return validate(names, meet, join, 0, n - 1)


def _lattice_stream(n):
    """(semilattice down-masks, lattice) for each lattice of size n, in order.

    The candidates extend each semilattice of the complete level n - 1 by a
    new maximal element; size 2 extends the empty semilattice.
    """
    parents = _level(n - 1).drain().downs if n > 2 else [()]
    for down in _dedupe(_semilattice_candidates(parents)):
        yield down, _lattice_from_semilattice(down)


class _Level:
    """The lattices of one size, built as far as they have been read.

    `lattices` holds the ones built so far, `downs` the meet-semilattice
    down-masks they were built from, and `_rest` the generator of the others.
    """

    def __init__(self, n):
        self.n = n
        self.lattices = []
        self.downs = []
        self._rest = _lattice_stream(n)

    def grow(self):
        """Build the next lattice; False when the level is complete.

        A level whose generation raised is dropped from the cache, to be
        built again in full, and raises again when read further here.
        """
        if self._rest is None:
            raise RuntimeError(f"building the lattices of size {self.n} failed")
        try:
            item = next(self._rest, None)
        except BaseException:
            _LEVELS.pop(self.n, None)
            self._rest = None
            raise
        if item is None:
            return False
        self.downs.append(item[0])
        self.lattices.append(item[1])
        return True

    def drain(self):
        while self.grow():
            pass
        return self


_LEVELS = {}


def _level(n):
    level = _LEVELS.get(n)
    if level is None:
        level = _LEVELS[n] = _Level(n)
    return level


def iter_lattices(n):
    """The lattices of `lattices_of_size(n)`, in order, each built when it is
    first read; readers that interleave see the same sequence."""
    if n < 2:
        return
    level = _level(n)
    i = 0
    while i < len(level.lattices) or level.grow():
        yield level.lattices[i]
        i += 1


def lattices_of_size(n):
    """All bounded lattices with n elements, one per isomorphism class.

    Deterministic order; element 0 is bottom and element n-1 is top.  Every
    call for one n returns the same list.
    """
    if n < 2:
        return []
    return _level(n).drain().lattices
