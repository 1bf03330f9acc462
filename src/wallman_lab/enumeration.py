"""Isomorph-free generation of posets, meet-semilattices and bounded lattices.

Posets are represented by ``down``: a tuple where down[a] is the bitmask of
{b : b <= a} including a itself.  Generation adds one new maximal element at a
time; a structure minus a maximal element stays in the class, so the recursion
is complete.  Duplicates are removed with an invariant bucket plus an explicit
isomorphism search, which keeps the whole pipeline deterministic: a candidate's
up-masks are derived once from its parent's (the new maximal element joins the
up-set of each element of its down-set) and give the profile (|down(a)|,
|up(a)|) per element that keys the bucket and restricts the isomorphism
search.  Lattice tables are read off the down- and up-masks by mask lookup,
`lattice._table`.

Each level of lattices is built on demand.  Dedupe keeps the first candidate
of each class in generation order, so a level can be handed out one lattice
at a time from the complete level below it, in the same order as when it is
built whole: `iter_lattices(n)` reads as far as its caller goes, and
`lattices_of_size(n)` drains the level.  A level holds its lattices, the
semilattice down-masks they were built from, and one row table and names
tuple that all its lattices share: each meet or join row is kept once per
level, in the level's table, and goes when the level does.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import PreconditionViolated
from .lattice import Poset, _downsets, _first_assignment, _table, _up_masks, validate


def _children(parent, dsets):
    """(down, up) of the parent poset with one new maximal element, for each
    of its exclusive down-sets in dsets.

    The parent's up-masks are walked once; in a child, the new element
    joins the up-set of each element of its down-set.
    """
    ups = _up_masks(parent)
    new = 1 << len(parent)
    for dset in dsets:
        yield parent + (dset | new,), tuple([u | new if dset >> b & 1 else u for b, u in enumerate(ups)] + [new])


def _profile(down, up):
    """|down(a)| * (m + 1) + |up(a)| for each element a of an m-element poset,
    one int per element that stands for the pair: the invariant behind dedupe."""
    k = len(down) + 1
    return tuple([d.bit_count() * k + u.bit_count() for d, u in zip(down, up)])


def _poset_isomorphic(down_a, prof_a, down_b, prof_b):
    """The first order isomorphism that keeps each element's profile, as the
    list of images of a's elements, or None.

    The two profiles are equal as multisets, as within one dedupe bucket.
    """
    by_profile = {}  # the mask of b's elements with each profile
    for j, p in enumerate(prof_b):
        by_profile[p] = by_profile.get(p, 0) | 1 << j

    def step(i, j, values, used):
        if used >> j & 1:
            return None
        da, db = down_a[i], down_b[j]
        for k in range(i):
            mk = values[k]
            if down_a[k] >> i & 1 != down_b[mk] >> j & 1 or da >> k & 1 != db >> mk & 1:
                return None
        return used | 1 << j

    return _first_assignment([by_profile.get(p, 0) for p in prof_a], step, 0)


def _dedupe(candidates):
    """The first (down, up) of each isomorphism class, in candidate order.

    A bucket entry is the down-masks and the profile of a kept candidate.
    """
    buckets = {}
    for down, up in candidates:
        prof = _profile(down, up)
        bucket = buckets.setdefault(tuple(sorted(prof)), [])
        if any(_poset_isomorphic(down, prof, other, other_prof) is not None for other, other_prof in bucket):
            continue
        bucket.append((down, prof))
        yield down, up


@lru_cache(maxsize=None)
def _posets_raw(m):
    """All posets on m elements, one per isomorphism class, as down-mask tuples."""
    if m == 0:
        return ((),)
    candidates = []
    for parent in _posets_raw(m - 1):
        candidates += _children(parent, _downsets(parent))
    return tuple(down for down, _ in _dedupe(candidates))


def _posets_with_few_downsets(limit):
    """(down, down-sets) of each poset on at least one point with at most
    limit down-sets, one per isomorphism class, in `_posets_raw` order
    level by level.

    Only posets with fewer than limit down-sets are grown: a child has more
    down-sets than its parent, so every class kept still meets its first
    candidate of `_posets_raw` in `_dedupe`."""
    level = [((), [0])]
    while level:
        candidates = []
        for parent, dsets in level:
            if len(dsets) < limit:
                candidates += _children(parent, dsets)
        level = []
        for down, _ in _dedupe(candidates):
            try:
                level.append((down, _downsets(down, limit)))
            except PreconditionViolated:  # more than limit down-sets
                pass
        yield from level


def posets_up_to_iso(m):
    """Posets on m elements up to isomorphism, as validated Poset values."""
    return [Poset(down).validate() for down in _posets_raw(m)]


def _semilattice_candidates(parents):
    """(down, up) of each parent meet-semilattice (element 0 the bottom) with
    one new maximal element added in every way that keeps it a
    meet-semilattice.

    A new maximal element with (exclusive) down-set dset needs a meet with
    every existing element d: the down-closed set dset & d must have a
    maximum, that is, be some element's down-mask.
    """
    for parent in parents:
        down_masks = set(parent)
        dsets = (dset for dset in _downsets(parent) if all((dset & d) in down_masks for d in parent))
        yield from _children(parent, dsets)


def _lattice_from_semilattice(down, up, rows, names):
    """Adjoin a top to a meet-semilattice with the given down- and up-masks
    (the top joins every up-set) and read off both tables with `_table`,
    the level's row table and names tuple."""
    n = len(down) + 1
    top = 1 << (n - 1)
    downs = down + ((1 << n) - 1,)
    ups = [u | top for u in up] + [top]
    return validate(names, _table(downs, rows), _table(ups, rows), 0, n - 1)


def _lattice_stream(n, rows, names):
    """(semilattice down-masks, lattice) for each lattice of size n, in order,
    built with the level's row table and names tuple.

    The candidates extend each semilattice of the complete level n - 1 by a
    new maximal element; size 2 extends the empty semilattice.
    """
    parents = _level(n - 1).drain().downs if n > 2 else [()]
    for down, up in _dedupe(_semilattice_candidates(parents)):
        yield down, _lattice_from_semilattice(down, up, rows, names)


class _Level:
    """The lattices of one size, built as far as they have been read.

    `lattices` holds the ones built so far, `downs` the meet-semilattice
    down-masks they were built from, and `_rest` the generator of the others.
    `rows` is the level's row table: it maps each meet or join row built so
    far to the one copy that every lattice of the level holds, and `names`
    is the one names tuple ("e0", ..., "e{n-1}") they all hold.
    """

    def __init__(self, n):
        self.n = n
        self.lattices = []
        self.downs = []
        self.rows = {}
        self.names = tuple(f"e{i}" for i in range(n))
        self._rest = _lattice_stream(n, self.rows, self.names)

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
    for _, L in iter_lattices_at(n, -1):
        yield L


def iter_lattices_at(n, positions):
    """(position, lattice) for the positions of `iter_lattices(n)` (n >= 2)
    in the bitmask positions, in order, each built when it is first read.
    A negative mask, such as ~skipped, runs on to the end of the level; the
    positions between two that are read are built, never visited."""
    level = _level(n)
    position = -1
    while True:
        rest = positions >> position + 1
        if not rest:
            return
        position += (rest & -rest).bit_length()
        while position >= len(level.lattices):
            if not level.grow():
                return
        yield position, level.lattices[position]


def lattices_of_size(n):
    """All bounded lattices with n elements, one per isomorphism class.

    Deterministic order; element 0 is bottom and element n-1 is top.  Every
    call for one n returns the same list.
    """
    if n < 2:
        return []
    return _level(n).drain().lattices
