"""Finite bounded lattices: validated tables and the lattice-level predicates.

All semantics run on dense element indices; display names are metadata.
Every search returns the lexicographically least witness in index order.

On a finite distributive lattice L, normality, HI and dim<=1 each hold
exactly when each connected component of the order on L's
join-irreducibles J holds one minimal element, that is, one atom.  L is the
lattice of down-sets of J (Birkhoff), and a component is a down-set of J.
- One atom per component: let x ^ y = 0, q the join of the components that
  meet x, p that of the others.  Then p ^ q = 0, p v q = 1 and p ^ x = 0.
  Each j in J lies above its component's atom, so a component meeting x
  and y would put its atom below x ^ y = 0; hence q ^ y = 0.  So p, q
  witness normality; z1 = q, z2 = 0, z3 = p is a chicane of a pliand
  (x, y, f, g), which gives HI; and such pairs for (x0, y0) and (x1, y1)
  have u0 ^ v0 = 0, which gives dim<=1.
- Two atoms in one component: were each element above one atom only,
  comparable elements would share it and, the component being connected,
  all of it would.  So some m in J lies above two atoms r and s.  If
  u ^ r = v ^ s = 0 and u v v = 1, then m <= u v v, and m, join-prime in a
  distributive lattice, lies below u or v, which then meets r or s; so
  normality fails at (r, s).  HI and dim<=1 each imply normality, on every
  lattice: for disjoint x, y put u = y, v = x in HI, whose z1, z2, z3 give
  z2 v z3 and z1 v z2; in dim<=1 put (x1, y1) = (x0, y0).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    LatticeLawViolation,
    MalformedTables,
    NotDistributive,
    NotPliand,
    PostconditionFailed,
    PreconditionViolated,
)


def _kept_hash(cls):
    """A frozen dataclass whose hash, a walk of all its fields (a formula's
    whole tree, a lattice's tables), is worked out on first use and kept on
    the object.  The kept hash is not pickled, since string hashes differ
    between processes."""
    cls = dataclass(frozen=True)(cls)
    fields_hash = cls.__hash__

    def __hash__(self):
        h = self._hash
        if h is None:
            h = fields_hash(self)
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    cls._hash = None  # not a field: no annotation, so eq and repr ignore it
    cls.__hash__, cls.__getstate__ = __hash__, __getstate__
    return cls


@_kept_hash
class FiniteLattice:
    names: tuple
    meet: tuple  # n x n tuple-of-tuples of element indices
    join: tuple
    bottom: int
    top: int

    @property
    def n(self):
        return len(self.names)

    def leq(self, a, b):
        return self.meet[a][b] == a

    def elements(self):
        return range(self.n)

    def name(self, a):
        return self.names[a]

    def __repr__(self):
        return f"FiniteLattice(n={self.n}, names={self.names!r})"


@dataclass(frozen=True)
class Poset:
    down: tuple  # down[a] is the mask of the b <= a

    @property
    def size(self):
        return len(self.down)

    def validate(self):
        n = self.size
        for a in range(n):
            if not self.down[a] >> a & 1:
                raise MalformedTables(f"le not reflexive at {a}")
        for a, d in enumerate(self.down):
            if not 0 <= d < 1 << n:
                raise MalformedTables(f"down-mask out of range at {a}")
        up = _up_masks(self.down)
        for a in range(n):
            for b in _bits(up[a]):
                if a != b and up[b] >> a & 1:
                    raise MalformedTables(f"le not antisymmetric at ({a},{b})")
                missing = up[b] & ~up[a]
                if missing:
                    raise MalformedTables(f"le not transitive at ({a},{b},{next(_bits(missing))})")
        return self


@dataclass(frozen=True)
class PliandFoursome:
    c: int
    d: int
    f: int
    g: int


@dataclass(frozen=True)
class Chicane:
    z1: int
    z2: int
    z3: int


_INT = frozenset((int,))


def _is_index(v, n):
    """An int in 0..n-1; a bool is not an index, though Python counts it as an int."""
    return isinstance(v, int) and not isinstance(v, bool) and 0 <= v < n


def _check_elements(L, values):
    """Raise PreconditionViolated unless every value is an element index of L."""
    for v in values:
        if not _is_index(v, L.n):
            raise PreconditionViolated(f"{v!r} is not an element index in 0..{L.n - 1}")


def table_violations(names, meet, join, bottom, top):
    """Return the complete list of (law, witness) pairs violated by the tables.

    Malformed tables raise.  Lawful tables are recognised in O(n^2); only
    tables that fail that decision go through the O(n^3) listing.
    """
    n = len(names)
    if len(meet) != n or len(join) != n or any(len(r) != n for r in meet) or any(len(r) != n for r in join):
        raise MalformedTables("tables must be square and match the element count")
    for t, label in ((meet, "meet"), (join, "join")):
        if _INT.issuperset(map(type, itertools.chain.from_iterable(t))) and set().union(*t) <= set(range(n)):
            continue
        for v in itertools.chain.from_iterable(t):  # the slow path names the first bad entry
            if not _is_index(v, n):
                raise MalformedTables(f"{label} entry {v!r} out of range")
    if not _is_index(bottom, n) or not _is_index(top, n):
        raise MalformedTables("bottom/top out of range")
    if n < 2 or bottom == top:
        raise MalformedTables("a bounded lattice needs distinct bottom and top")

    if _is_bounded_lattice(meet, join, bottom, top):
        return []
    return _law_violations(meet, join, bottom, top)


def _is_bounded_lattice(meet, join, bottom, top):
    """Do well-formed tables satisfy every law `_law_violations` lists?  O(n^2).

    Reads a <= b as meet[a][b] == a and, with bitmasks of down- and up-sets,
    checks that this relation is reflexive and antisymmetric, that
    down(meet[a][b]) == down(a) & down(b) and up(join[a][b]) == up(a) & up(b),
    and that bottom and top are the bounds.  Transitivity follows: for a <= b
    the first equation reads down(a) == down(a) & down(b).  So <= is a partial
    order with meet and join as greatest lower and least upper bounds, and
    these conditions hold exactly when no law fails.
    """
    n = len(meet)
    down = [0] * n
    up = [0] * n
    for a, row in enumerate(meet):
        bit = 1 << a
        for b, m in enumerate(row):
            if m == a:
                down[b] |= bit
                up[a] |= 1 << b
    for a, d in enumerate(down):
        if d & up[a] != 1 << a:  # reflexive and antisymmetric at a
            return False
    for da, ua, mrow, jrow in zip(down, up, meet, join):
        for db, ub, m, j in zip(down, up, mrow, jrow):
            if down[m] != da & db or up[j] != ua & ub:
                return False
    full = (1 << n) - 1
    return up[bottom] == full and down[top] == full


def _law_violations(meet, join, bottom, top):
    """Every (law, witness) pair the tables violate, in a fixed order.  O(n^3)."""
    n = len(meet)
    out = []
    for t, label in ((meet, "meet"), (join, "join")):
        for a in range(n):
            if t[a][a] != a:
                out.append((f"{label}-idempotence", (a,)))
            for b in range(n):
                if t[a][b] != t[b][a]:
                    out.append((f"{label}-commutativity", (a, b)))
                for c in range(n):
                    if t[t[a][b]][c] != t[a][t[b][c]]:
                        out.append((f"{label}-associativity", (a, b, c)))
    for a in range(n):
        for b in range(n):
            if meet[a][join[a][b]] != a:
                out.append(("absorption-meet-join", (a, b)))
            if join[a][meet[a][b]] != a:
                out.append(("absorption-join-meet", (a, b)))
    for a in range(n):
        if meet[bottom][a] != bottom:
            out.append(("bottom-meet", (a,)))
        if join[top][a] != top:
            out.append(("top-join", (a,)))
        if join[bottom][a] != a:
            out.append(("bottom-join", (a,)))
        if meet[top][a] != a:
            out.append(("top-meet", (a,)))
    for a in range(n):
        for b in range(n):
            if (meet[a][b] == a) != (join[a][b] == b):
                out.append(("order-agreement", (a, b)))
    return out


def validate(names, meet, join, bottom, top):
    """Build a FiniteLattice from raw tables, or raise with all violated laws."""
    names = tuple(names)
    meet = tuple(tuple(r) for r in meet)
    join = tuple(tuple(r) for r in join)
    bad = table_violations(names, meet, join, bottom, top)
    if bad:
        raise LatticeLawViolation(bad)
    return FiniteLattice(names, meet, join, bottom, top)


def _by_size(masks):
    """Masks in (popcount, mask) order, the element order of every lattice of sets."""
    return sorted(masks, key=lambda m: (m.bit_count(), m))


def _table(masks, rows):
    """T[a][b] = the element whose mask is masks[a] & masks[b], each row the
    copy kept in the row table `rows`.

    A lattice is fixed by its order: a ^ b is the element whose down-set is
    down(a) & down(b), and a v b the one whose up-set is up(a) & up(b).  So
    each constructor passes a mask per element for the meet table and one
    for the join table: `chain` (2 << i) - 1 and -1 << i, `diamond_m3` its
    down- and up-sets, `powerset_lattice` and `_mask_lattice` each set m and
    its complement ~m (as ~(a | b) = ~a & ~b), the enumeration a
    semilattice's masks with a top adjoined.  Masks are only ANDed, so
    negative ones need no full set.
    """
    index = {m: i for i, m in enumerate(masks)}
    shared = rows.setdefault
    return tuple([shared(row, row) for row in [tuple([index[a & b] for b in masks]) for a in masks]])


def _mask_lattice(family, prefix=""):
    """The lattice of a union/intersection-closed family of masks holding 0
    and the full set, validated, with the family in element order.

    Elements are in (popcount, mask) order; each is named by its bits, each
    bit after `prefix`: "{0,2}", or "{p0,p2}" with prefix "p".
    """
    members = _by_size(family)
    names = tuple(
        "{" + ",".join(f"{prefix}{b}" for b in range(m.bit_length()) if m >> b & 1) + "}"
        for m in members
    )
    meet, join = _table(members, {}), _table([~m for m in members], {})
    return validate(names, meet, join, 0, len(members) - 1), members


def chain(k):
    """The k-element chain 0 < 1 < ... < k-1."""
    if not isinstance(k, int) or isinstance(k, bool):
        raise PreconditionViolated(f"chain takes an int number of elements, not {k!r}")
    names = tuple(f"c{i}" for i in range(k))
    down, up = [(2 << i) - 1 for i in range(k)], [-1 << i for i in range(k)]
    return validate(names, _table(down, {}), _table(up, {}), 0, k - 1)


def powerset_lattice(k):
    """2^{0..k-1}; element index == subset bitmask."""
    if not isinstance(k, int) or isinstance(k, bool):
        raise PreconditionViolated(f"powerset_lattice takes an int number of points, not {k!r}")
    n = int(2**k)  # 0 for k < 0: no elements, which validate refuses
    names = tuple("{" + ",".join(str(i) for i in range(k) if m >> i & 1) + "}" for m in range(n))
    return validate(names, _table(range(n), {}), _table([~m for m in range(n)], {}), 0, n - 1)


def diamond_m3():
    """M3: bottom, three incomparable midpoints, top."""
    down = (0b00001, 0b00011, 0b00101, 0b01001, 0b11111)
    up = (0b11111, 0b10010, 0b10100, 0b11000, 0b10000)
    return validate(("0", "a", "b", "c", "1"), _table(down, {}), _table(up, {}), 0, 4)


def is_distributive(L):
    """True iff meet distributes over join; else the least violating triple."""
    meet, join = L.meet, L.join
    for a in L.elements():
        for b in L.elements():
            for c in L.elements():
                if meet[a][join[b][c]] != join[meet[a][b]][meet[a][c]]:
                    return False, (a, b, c)
    return True, None


def is_disjunctive(L):
    """Separativity: a not<= b implies some nonzero c <= a with c^b = 0."""
    perp, _, down, up = _masks(L)
    only_bottom = 1 << L.bottom
    for a, (da, ua) in enumerate(zip(down, up)):
        for b, pb in enumerate(perp):
            if not ua >> b & 1 and da & pb == only_bottom:
                return False, (a, b)
    return True, None


def is_normal(L):
    """Evaluate the separation property behind Hausdorffness of the represented space.

    Returns (True, witness_map) where witness_map[(x,y)] = (u,v) for each
    disjoint pair, or (False, (x,y)) for the least pair with no witness.
    """
    perp, cotop, _, _ = _masks(L)
    witnesses = {}
    for x, px in enumerate(perp):
        for y in _bits(px):
            py = perp[y]
            for u in _bits(px):  # the first u with some v, and the least such v
                vs = py & cotop[u]
                if vs:
                    witnesses[x, y] = u, next(_bits(vs))
                    break
            else:
                return False, (x, y)
    return True, witnesses


def conn(L, a):
    """No splitting of a into two disjoint nonzero pieces joining to a."""
    _check_elements(L, (a,))
    meet, join = L.meet, L.join
    bot = L.bottom
    for x in L.elements():
        for y in L.elements():
            if meet[x][y] == bot and join[x][y] == a and not (x == bot or x == a):
                return False, (x, y)
    return True, None


def is_pliand(L, fs):
    _check_elements(L, (fs.c, fs.d, fs.f, fs.g))
    meet, bot = L.meet, L.bottom
    return meet[fs.c][fs.d] == bot and meet[fs.c][fs.f] == bot and meet[fs.d][fs.g] == bot


def chicane_identities_hold(L, fs, ch):
    _check_elements(L, (fs.c, fs.d, fs.f, fs.g, ch.z1, ch.z2, ch.z3))
    meet, join = L.meet, L.join
    bot = L.bottom
    return (
        meet[fs.c][join[ch.z2][ch.z3]] == bot
        and meet[fs.d][join[ch.z1][ch.z2]] == bot
        and meet[ch.z1][ch.z3] == bot
        and meet[meet[ch.z1][ch.z2]][fs.g] == bot
        and meet[meet[ch.z2][ch.z3]][fs.f] == bot
        and join[join[ch.z1][ch.z2]][ch.z3] == L.top
    )


def _bits(mask):
    """The set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _up_masks(down):
    """up[a] is the bitmask of {b : a <= b}, read off the down-masks bit by bit."""
    up = [0] * len(down)
    for b, d in enumerate(down):
        for a in _bits(d):
            up[a] |= 1 << b
    return up


@lru_cache(maxsize=256)
def _preimages(L):
    """(meet_pre, join_pre): meet_pre[y][e] is the mask of the x with
    meet[x][y] == e, and join_pre[y][e] that of the x with join[x][y] == e.
    So meet_pre[y][y] is the up-set of y and join_pre[y][y] its down-set.
    Kept per lattice value, for the pebble games and the embedding search."""
    rows = []
    for table in (L.meet, L.join):
        pre = [[0] * L.n for _ in range(L.n)]
        for x, row in enumerate(table):
            for y, e in enumerate(row):
                pre[y][e] |= 1 << x
        rows.append(tuple(map(tuple, pre)))
    return tuple(rows)


@lru_cache(maxsize=8)
def _masks(L):
    """(perp, cotop, down, up): for each element x the bitmasks of
    {y : x^y = 0}, {y : x v y = 1}, {y : y <= x} and {y : x <= y}, as
    tuples, built in one pass over each table and kept for the last eight
    lattices, so the readers of one lattice in turn share one build."""
    bot, top, n = L.bottom, L.top, L.n
    perp, cotop, down, up = [0] * n, [0] * n, [0] * n, [0] * n
    for x, row in enumerate(L.meet):
        bit, p, u = 1 << x, 0, 0
        for y, m in enumerate(row):
            if m == bot:
                p |= 1 << y
            if m == x:
                u |= 1 << y
                down[y] |= bit
        perp[x], up[x] = p, u
    for x, row in enumerate(L.join):
        c = 0
        for y, j in enumerate(row):
            if j == top:
                c |= 1 << y
        cotop[x] = c
    return tuple(perp), tuple(cotop), tuple(down), tuple(up)


def _maximal_foursomes(perp, above):
    """The maximal pliand foursomes of the same family, where above[x] is
    the bitmask of the members strictly above x.

    A foursome is maximal iff each coordinate is maximal given the other
    three: c among the members disjoint from d and f, d among those disjoint
    from c and g, f among those disjoint from c, g among those disjoint from d.
    """
    tops = [[x for x in _bits(p) if not above[x] & p] for p in perp]
    for c, pc in enumerate(perp):
        for d in _bits(pc):
            pd = perp[d]
            for f in tops[c]:
                if above[c] & pd & perp[f]:
                    continue
                for g in tops[d]:
                    if not above[d] & pc & perp[g]:
                        yield c, d, f, g


def _least_chicane(L, c, d, f, g):
    """The lexicographically least chicane of a pliand foursome, or None.

    Each of the six identities is decided exactly by a mask test: z1 v z2
    and z2 v z3 must avoid d and c, z1 ^ z2 and z2 ^ z3 must avoid g and f,
    z1 ^ z3 = 0, and z3 must join z1 v z2 to the top.
    """
    meet, join = L.meet, L.join
    perp, cotop, _, _ = _masks(L)
    pc, pd, pf, pg = perp[c], perp[d], perp[f], perp[g]
    pcd = pc & pd
    for z1 in _bits(pd):
        m1, j1, p1 = meet[z1], join[z1], perp[z1]
        for z2 in _bits(pcd):
            j12 = j1[z2]
            if not (pg >> m1[z2] & 1 and pd >> j12 & 1):
                continue
            m2, j2 = meet[z2], join[z2]
            for z3 in _bits(pc & p1 & cotop[j12]):
                if pf >> m2[z3] & 1 and pc >> j2[z3] & 1:
                    return Chicane(z1, z2, z3)
    return None


def find_chicane(L, fs):
    """Lexicographically least chicane for a pliand foursome, or None."""
    if not is_pliand(L, fs):
        raise NotPliand(f"foursome {fs} violates the pliand identities")
    return _least_chicane(L, fs.c, fs.d, fs.f, fs.g)


def _first_without_chicane(perp, above, has_chicane):
    """The first pliand foursome of a family (an index tuple, in
    lexicographic order) for which has_chicane fails, or None.

    perp and above are the family's disjointness masks and the masks of the
    members strictly above each member.  Two facts spare most chicane tests.

    Closed downward: the pliand foursomes form a down-set and a chicane of a
    foursome is one of every pliand foursome below it, since each identity
    only gets easier as c, d, f or g shrinks.  So every foursome has a
    chicane iff every maximal one has, and a foursome below a maximal one
    that has a chicane has one too.

    Mirror pairs: (c, d, f, g; z1, z2, z3) -> (d, c, g, f; z3, z2, z1) maps
    the pliand identities and the six chicane identities onto themselves
    (for closed sets, (x0, x1, x2) -> (x2, x1, x0) does the same), so q has
    a chicane iff its mirror has, and the mirror of a maximal foursome is
    maximal.

    The maximal foursomes are tested in order, each mirror pair once, until
    one fails.  The ordered scan then tests only the foursomes that are not
    below a maximal foursome already passed (cover[i][x] is the bitmask of
    those whose i-th member is >= x) and whose mirror is not earlier: an
    earlier mirror has already passed, tested or covered, or the scan would
    have stopped there.  Every skipped foursome has a chicane, so the first
    one tested without a chicane is the first in the whole order.
    """
    passed = []
    for q in _maximal_foursomes(perp, above):
        c, d, f, g = q
        if (d, c, g, f) >= q and not has_chicane(q):
            break
        passed.append(q)
    else:
        return None
    below = [m | 1 << x for x, m in enumerate(_up_masks(above))]
    cover = [[0] * len(perp) for _ in range(4)]
    for k, q in enumerate(passed):
        for i, m in enumerate(q):
            for x in _bits(below[m]):
                cover[i][x] |= 1 << k
    c0, c1, c2, c3 = cover
    for c, pc in enumerate(perp):
        for d in _bits(pc >> c << c):
            pd, k_cd = perp[d], c0[c] & c1[d]
            for f in _bits(pc):
                k_cdf = k_cd & c2[f]
                for g in _bits(pd >> f << f if d == c else pd):
                    if not k_cdf & c3[g] and not has_chicane((c, d, f, g)):
                        return c, d, f, g
    raise PostconditionFailed("the scan passed the maximal foursome that failed")


def satisfies_HI(L):
    """Every pliand foursome admits a chicane; else the least offending foursome."""
    perp, _, _, up = _masks(L)
    above = [u ^ 1 << x for x, u in enumerate(up)]
    first = _first_without_chicane(perp, above, lambda q: _least_chicane(L, *q) is not None)
    return (True, None) if first is None else (False, PliandFoursome(*first))


def _dim_le1_keys(L):
    """(disjoint, first_pair, key_of, partitions) for the dim<=1 scans: the
    disjoint pairs (x, y) in order; the first pair of each key (perp[x],
    perp[y]), the keys numbered in order of first appearance; each pair's
    key number; and each key's partitions (u, v, u^v), u ^ x = v ^ y = 0
    and u v v = 1, in lexicographic order."""
    meet = L.meet
    perp, cotop, _, _ = _masks(L)
    perp_bits = [list(_bits(m)) for m in perp]
    cotop_bits = [list(_bits(m)) for m in cotop]
    disjoint = [(x, y) for x, ys in enumerate(perp_bits) for y in ys]
    ids, first_pair, key_of = {}, [], []
    for x, y in disjoint:
        k = ids.setdefault((perp[x], perp[y]), len(ids))
        if k == len(first_pair):
            first_pair.append((x, y))
        key_of.append(k)
    partitions = [
        [(u, v, meet[u][v]) for u in perp_bits[x] for v in cotop_bits[u] if perp[y] >> v & 1] for x, y in first_pair
    ]
    return disjoint, first_pair, key_of, partitions


def _dim_le1_scan(L):
    """The scan behind `satisfies_dim_le1`, stopped before the witness map.

    Returns (False, (x0,y0,x1,y1)), the first failing quadruple, or (True,
    (disjoint, key_of, rows)): the disjoint pairs in order, each pair's key
    number, and each key's row of witnesses by partner key number.
    """
    disjoint, first_pair, key_of, partitions = _dim_le1_keys(L)
    perp = _masks(L)[0]
    hits = {}  # hits[w][k]: key k's first (u, v) with u^v^w = 0, or None
    rows = []
    for k0, parts in enumerate(partitions):
        # partner key k1 takes the first (u0, v0) of k0 whose meet w some
        # (u1, v1) of k1 clears, with the first such (u1, v1)
        row = [None] * len(partitions)
        for u0, v0, w in parts:
            if w not in hits:
                pw = perp[w]
                hits[w] = [next(((u, v) for u, v, m in ps if pw >> m & 1), None) for ps in partitions]
            row = [(u0, v0) + h if r is None and h is not None else r for r, h in zip(row, hits[w])]
            if None not in row:
                break
        if None in row:
            return False, first_pair[k0] + first_pair[row.index(None)]
        rows.append(row)
    return True, (disjoint, key_of, rows)


def _dim_le1_first_failure(L):
    """The first failing quadruple of `satisfies_dim_le1`, or None, with no
    witness built: the rows hold keys^2 witnesses, 43 M on 2^8, and the
    verdict needs only the partner keys each row leaves empty.  Key k0
    covers partner k1 when a meet of k0's partitions and one of k1's meet
    in 0; the covered partners are kept as a bitmask, and the first key
    with a gap, with its lowest uncovered partner, is the row scan's first
    failure."""
    _, first_pair, _, partitions = _dim_le1_keys(L)
    perp = _masks(L)[0]
    meets = [sum(1 << w for w in {m for _, _, m in ps}) for ps in partitions]
    all_keys = (1 << len(partitions)) - 1
    covers = {}  # covers[w]: the mask of the keys with a meet in perp[w]
    for k0, parts in enumerate(partitions):
        gap = all_keys
        for _, _, w in parts:
            if w not in covers:
                covers[w] = sum(1 << k for k, m in enumerate(meets) if m & perp[w])
            gap &= ~covers[w]
            if not gap:
                break
        else:
            return first_pair[k0] + first_pair[(gap & -gap).bit_length() - 1]
    return None


def dim_le1_holds(L):
    """The verdict of `satisfies_dim_le1`, without building the witness map."""
    return _dim_le1_first_failure(L) is None


def satisfies_dim_le1(L):
    """Two disjoint pairs always admit partition witnesses with vanishing 4-fold meet.

    Returns (True, witness_map) or (False, (x0,y0,x1,y1)).  The witness for
    two pairs is the lexicographically least (u0, v0, u1, v1) with ui ^ xi =
    vi ^ yi = 0, ui v vi = 1 and u0 ^ v0 ^ u1 ^ v1 = 0.

    A witness depends on the pairs only through their keys (perp[xi],
    perp[yi]), numbered in order of first appearance.  The first pair with
    key k0 fills k0's row, a list of the witnesses by partner key number.  A
    row with a gap fails at the gap's first pair, which is the first failing
    partner in the map's order, since the keys are numbered in that order;
    and the rows are filled in key order, so the first row with a gap gives
    the first failing quadruple.  Each pair then copies its row into the
    map, partner by partner, so the map's items and their order are those
    of a search pair by pair.
    """
    ok, found = _dim_le1_scan(L)
    if not ok:
        return False, found
    disjoint, key_of, rows = found
    xs, ys = [x for x, _ in disjoint], [y for _, y in disjoint]
    witnesses = {}
    for (x0, y0), k0 in zip(disjoint, key_of):
        row = rows[k0]
        witnesses.update(zip(zip(itertools.repeat(x0), itertools.repeat(y0), xs, ys), map(row.__getitem__, key_of)))
    return True, witnesses


def _downsets(down, limit=None):
    """All down-closed subsets of a poset given by inclusive down-masks, ascending.

    Elements are added smallest down-mask first, so each is maximal among
    those before it, and a down-set of those before it extends by element a
    exactly when it holds everything strictly below a.  More than `limit`
    down-sets (when given) is PreconditionViolated, found once they pass it.
    """
    out = [0]
    for a in sorted(range(len(down)), key=lambda a: down[a].bit_count()):
        below = down[a] & ~(1 << a)
        out += [s | 1 << a for s in out if below & ~s == 0]
        if limit is not None and len(out) > limit:
            raise PreconditionViolated(f"the poset has more than {limit} down-sets")
    out.sort()
    return out


def downset_lattice(P, max_elements=None):
    """Lattice of down-closed subsets of a poset under intersection/union.

    A poset with more than `max_elements` down-sets (when given) is
    PreconditionViolated, found before any table is built.
    """
    P.validate()
    return _mask_lattice(_downsets(P.down, max_elements), "p")[0]


def join_irreducibles(L):
    out = []
    for e, d in enumerate(_masks(L)[2]):
        if e == L.bottom:
            continue
        # e is join-irreducible iff the join of everything strictly below stays below e
        acc = L.bottom
        for a in _bits(d ^ 1 << e):
            acc = L.join[acc][a]
        if acc != e:
            out.append(e)
    return out


def birkhoff_poset(L):
    """Poset of join-irreducibles of a distributive lattice."""
    ok, witness = is_distributive(L)
    if not ok:
        raise NotDistributive(f"witness triple {witness}")
    down, irr = _masks(L)[2], join_irreducibles(L)
    return Poset(tuple(sum(1 << i for i, a in enumerate(irr) if down[b] >> a & 1) for b in irr)).validate()


def _first_assignment(domains, step, state, charge=None, live=None):
    """The first assignment of values to the variables 0..k-1, or None.

    Variables are assigned in order, each trying the set bits of the mask
    domains[i], lowest first; a callable domains[i] is a domain that depends
    on the values before it, domains[i](values, state) giving the mask.
    step(i, value, values, state) sees values[0..i] assigned, value
    included, and returns the state for variable i + 1, or None to prune.

    charge, when given, is (tick, n), and each value 0..n-1 of a walked
    domain is charged, masked out or not: tick(value - last) before each
    value tried, tick(n - 1 - last) after a walk that runs out.

    live, when given, holds for each variable None or a mask, callable as
    a domain may be: the values of variable i that leave the domain of
    variable i + 1 a value (the model finder's supports, found from
    transposed filter rows).  Only those are tried.  The caller vouches
    that step accepts every value of such a variable, so a dead value, one
    of the domain outside live, is charged as the walk it would have been:
    its gap, then n for the next variable's empty walk.  Each dead value
    passed adds n to the tick before the next value tried, or to the tick
    at the end of a walk that runs out; none past a success is charged.
    """
    values = [None] * len(domains)
    return values if _assign(0, domains, step, state, values, charge, live) else None


def _assign(i, domains, step, state, values, charge, live):
    # a module-level recursion, not a closure that calls itself: such a
    # closure is a reference cycle that lives until the garbage collector runs
    if i == len(domains):
        return True
    mask = domains[i]
    if callable(mask):
        mask = mask(values, state)
    dead = 0
    keep = live[i] if live else None
    if keep is not None:
        if callable(keep):
            keep = keep(values, state)
        dead = mask & ~keep
        mask ^= dead
    last = -1
    while mask:
        low = mask & -mask
        value = low.bit_length() - 1
        if charge:
            k = value - last
            if dead:
                passed = dead & low - 1
                dead ^= passed
                k += charge[1] * passed.bit_count()
            charge[0](k)
        values[i] = last = value
        nxt = step(i, value, values, state)
        if nxt is not None and _assign(i + 1, domains, step, nxt, values, charge, live):
            return True
        mask ^= low
    if charge and last < charge[1] - 1:
        charge[0](charge[1] - 1 - last + charge[1] * dead.bit_count())
    return False


def lattice_isomorphism(A, B):
    """An isomorphism (index map) between bounded lattices, or None.

    An order isomorphism between lattices keeps meets, joins and the bounds,
    so this is the poset search on the lattices' down-masks.
    """
    from .enumeration import _poset_isomorphic, _profile

    if A.n != B.n:
        return None
    (down_a, up_a), (down_b, up_b) = (_masks(L)[2:] for L in (A, B))
    prof_a, prof_b = _profile(down_a, up_a), _profile(down_b, up_b)
    if sorted(prof_a) != sorted(prof_b):
        return None
    mapping = _poset_isomorphic(down_a, prof_a, down_b, prof_b)
    return None if mapping is None else dict(enumerate(mapping))


def enumerate_distributive(max_size):
    """One representative per isomorphism class of distributive lattices, size <= max_size.

    Generated through downset lattices of posets of join-irreducibles; poset
    isomorphism classes give exactly one lattice per class.  Only posets with
    at most max_size down-sets are built (`_posets_with_few_downsets`).
    """
    from .enumeration import _posets_with_few_downsets

    found = [_mask_lattice(dsets, "p")[0] for _, dsets in _posets_with_few_downsets(max_size)]
    found.sort(key=lambda L: L.n)
    yield from found
