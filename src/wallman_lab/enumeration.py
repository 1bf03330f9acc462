"""Isomorph-free generation of posets, meet-semilattices and bounded lattices.

Posets are represented by ``down``: a tuple where down[a] is the bitmask of
{b : b <= a} including a itself.  Generation adds one new maximal element at a
time; a structure minus a maximal element stays in the class, so the recursion
is complete.  Duplicates are removed with an invariant bucket plus an explicit
isomorphism search, which keeps the whole pipeline deterministic.
"""

from __future__ import annotations

from functools import lru_cache

from .lattice import Poset, validate


def _popcount(x):
    return bin(x).count("1")


def _bits(mask):
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out


def _up_masks(down):
    m = len(down)
    up = [0] * m
    for a in range(m):
        for b in range(m):
            if down[b] >> a & 1:
                up[a] |= 1 << b
    return up


def _invariant(down):
    up = _up_masks(down)
    prof = sorted((_popcount(down[a]), _popcount(up[a])) for a in range(len(down)))
    return (len(down), tuple(prof))


def _poset_isomorphic(down_a, down_b):
    m = len(down_a)
    if len(down_b) != m:
        return False
    up_a, up_b = _up_masks(down_a), _up_masks(down_b)
    prof_a = [(_popcount(down_a[i]), _popcount(up_a[i])) for i in range(m)]
    prof_b = [(_popcount(down_b[i]), _popcount(up_b[i])) for i in range(m)]
    if sorted(prof_a) != sorted(prof_b):
        return False
    mapping = [-1] * m
    used = [False] * m

    def extend(i):
        if i == m:
            return True
        for j in range(m):
            if used[j] or prof_a[i] != prof_b[j]:
                continue
            ok = True
            for k in range(i):
                la = down_a[k] >> i & 1
                lb = down_b[mapping[k]] >> j & 1
                if la != lb:
                    ok = False
                    break
                la = down_a[i] >> k & 1
                lb = down_b[j] >> mapping[k] & 1
                if la != lb:
                    ok = False
                    break
            if ok:
                mapping[i] = j
                used[j] = True
                if extend(i + 1):
                    return True
                used[j] = False
                mapping[i] = -1
        return False

    return extend(0)


def _dedupe(candidates):
    buckets = {}
    out = []
    for down in candidates:
        key = _invariant(down)
        bucket = buckets.setdefault(key, [])
        if any(_poset_isomorphic(down, other) for other in bucket):
            continue
        bucket.append(down)
        out.append(down)
    return out


def _downsets(down):
    """All down-closed subsets of a poset given by inclusive down-masks."""
    m = len(down)
    out = []
    for mask in range(1 << m):
        ok = True
        for a in _bits(mask):
            if down[a] & ~mask:
                ok = False
                break
        if ok:
            out.append(mask)
    return out


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


def _semilattice_ok(down, dset):
    """Can a new maximal element with (exclusive) downset dset be added?

    Requires a meet for the new element with every existing one: each
    dset & down[a] must have a maximum.
    """
    m = len(down)
    for a in range(m):
        common = dset & down[a]
        if common == 0:
            return False
        ok = False
        for t in _bits(common):
            if common & ~down[t] == 0:
                ok = True
                break
        if not ok:
            return False
    return True


@lru_cache(maxsize=None)
def _semilattices_raw(m):
    """Meet-semilattices on m elements up to isomorphism (element 0 is the bottom)."""
    if m == 0:
        return ()
    if m == 1:
        return ((1,),)
    candidates = []
    for parent in _semilattices_raw(m - 1):
        for dset in _downsets(parent):
            if not _semilattice_ok(parent, dset):
                continue
            candidates.append(parent + (dset | (1 << (m - 1)),))
    return tuple(_dedupe(candidates))


def _lattice_from_semilattice(down):
    """Adjoin a top to a meet-semilattice and read off both tables."""
    m = len(down)
    n = m + 1
    full = (1 << n) - 1
    downs = [d for d in down] + [full]
    ups = _up_masks(tuple(downs))
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            common = downs[a] & downs[b]
            for t in _bits(common):
                if common & ~downs[t] == 0:
                    meet[a][b] = t
                    break
            upper = ups[a] & ups[b]
            for t in _bits(upper):
                if upper & ~ups[t] == 0:
                    join[a][b] = t
                    break
    names = tuple(f"e{i}" for i in range(n))
    return validate(names, meet, join, 0, n - 1)


_LATTICE_CACHE = {}


def lattices_of_size(n):
    """All bounded lattices with n elements, one per isomorphism class.

    Deterministic order; element 0 is bottom and element n-1 is top.
    """
    if n < 2:
        return []
    if n not in _LATTICE_CACHE:
        _LATTICE_CACHE[n] = [_lattice_from_semilattice(s) for s in _semilattices_raw(n - 1)]
    return _LATTICE_CACHE[n]


def all_labeled_lattices(n):
    """Naive oracle: every labeled bounded lattice on {0..n-1}, duplicates included.

    Brute force over all order matrices; intended only for cross-checks at
    very small n.
    """
    out = []
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    for mask in range(1 << len(pairs)):
        le = [[a == b for b in range(n)] for a in range(n)]
        for i, (a, b) in enumerate(pairs):
            if mask >> i & 1:
                le[a][b] = True
        ok = True
        for a in range(n):
            for b in range(n):
                if a != b and le[a][b] and le[b][a]:
                    ok = False
                    break
                if le[a][b]:
                    for c in range(n):
                        if le[b][c] and not le[a][c]:
                            ok = False
                            break
                if not ok:
                    break
            if not ok:
                break
        if not ok:
            continue
        bots = [a for a in range(n) if all(le[a][b] for b in range(n))]
        tops = [a for a in range(n) if all(le[b][a] for b in range(n))]
        if len(bots) != 1 or len(tops) != 1 or bots[0] == tops[0]:
            continue
        meet = [[None] * n for _ in range(n)]
        join = [[None] * n for _ in range(n)]
        lattice = True
        for a in range(n):
            for b in range(n):
                lower = [c for c in range(n) if le[c][a] and le[c][b]]
                glb = [c for c in lower if all(le[d][c] for d in lower)]
                upper = [c for c in range(n) if le[a][c] and le[b][c]]
                lub = [c for c in upper if all(le[c][d] for d in upper)]
                if len(glb) != 1 or len(lub) != 1:
                    lattice = False
                    break
                meet[a][b] = glb[0]
                join[a][b] = lub[0]
            if not lattice:
                break
        if not lattice:
            continue
        names = tuple(f"e{i}" for i in range(n))
        out.append(validate(names, meet, join, bots[0], tops[0]))
    return out
