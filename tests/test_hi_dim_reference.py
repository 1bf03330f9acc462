"""The bitmask HI and dim<=1 deciders against the direct searches they replaced.

The reference functions below are `find_chicane`, `satisfies_HI`,
`satisfies_dim_le1` and `spaces._pliand_chicanes` as they were before the
bitmask rewrite: plain index loops over the tables, every pliand foursome
tried in order.  The rewrite must return exactly what they return: verdict,
least offending foursome, least chicane and the whole witness map.
"""

import hashlib
import itertools
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from wallman_lab.enumeration import lattices_of_size
from wallman_lab.errors import NotPliand, PreconditionViolated
from wallman_lab.lattice import (
    Chicane,
    PliandFoursome,
    _dim_le1_first_failure,
    _first_without_chicane,
    _least_chicane,
    _masks,
    _maximal_foursomes,
    chicane_identities_hold,
    dim_le1_holds,
    find_chicane,
    is_pliand,
    powerset_lattice,
    satisfies_HI,
    satisfies_dim_le1,
)
from wallman_lab.spaces import (
    all_spaces,
    base_restricted_HI,
    chicane_condition,
    closed_set_lattice,
    is_T1,
    space_chicane,
)

from oracles import frozen_dim_le1


def reference_find_chicane(L, fs):
    if not is_pliand(L, fs):
        raise NotPliand(f"foursome {fs} violates the pliand identities")
    meet, join = L.meet, L.join
    bot, top = L.bottom, L.top
    c, d, f, g = fs.c, fs.d, fs.f, fs.g
    for z1 in L.elements():
        if meet[z1][d] != bot:
            continue
        for z2 in L.elements():
            if meet[c][z2] != bot or meet[d][z2] != bot:
                continue
            if meet[meet[z1][z2]][g] != bot:
                continue
            for z3 in L.elements():
                if (
                    meet[c][z3] == bot
                    and meet[z1][z3] == bot
                    and meet[meet[z2][z3]][f] == bot
                    and join[join[z1][z2]][z3] == top
                ):
                    ch = Chicane(z1, z2, z3)
                    if chicane_identities_hold(L, fs, ch):
                        return ch
    return None


def pliand_foursomes(L):
    """Every pliand foursome of L in lexicographic index order."""
    meet, bot = L.meet, L.bottom
    for c in L.elements():
        for d in L.elements():
            if meet[c][d] != bot:
                continue
            for f in L.elements():
                if meet[c][f] != bot:
                    continue
                for g in L.elements():
                    if meet[d][g] == bot:
                        yield PliandFoursome(c, d, f, g)


def reference_HI(L):
    for fs in pliand_foursomes(L):
        if reference_find_chicane(L, fs) is None:
            return False, fs
    return True, None


def reference_dim_le1(L):
    meet, join = L.meet, L.join
    bot, top = L.bottom, L.top
    disjoint = [(x, y) for x in L.elements() for y in L.elements() if meet[x][y] == bot]
    witnesses = {}
    for x0, y0 in disjoint:
        for x1, y1 in disjoint:
            found = None
            for u0 in L.elements():
                if meet[x0][u0] != bot:
                    continue
                for v0 in L.elements():
                    if meet[y0][v0] != bot or join[u0][v0] != top:
                        continue
                    for u1 in L.elements():
                        if meet[x1][u1] != bot:
                            continue
                        for v1 in L.elements():
                            if (
                                meet[y1][v1] == bot
                                and join[u1][v1] == top
                                and meet[meet[meet[u0][v0]][u1]][v1] == bot
                            ):
                                found = (u0, v0, u1, v1)
                                break
                        if found:
                            break
                    if found:
                        break
                if found:
                    break
            if found is None:
                return False, (x0, y0, x1, y1)
            witnesses[(x0, y0, x1, y1)] = found
    return True, witnesses


def reference_pliand_chicanes(X, family):
    fam = X.closed_sorted()
    for c in family:
        for d in family:
            if c & d:
                continue
            for f in family:
                if c & f:
                    continue
                for g in family:
                    if d & g:
                        continue
                    if space_chicane(X, c, d, f, g, fam) is None:
                        return False, (c, d, f, g)
    return True, None


def small_lattices(max_size):
    return [(n, i, L) for n in range(2, max_size + 1) for i, L in enumerate(lattices_of_size(n))]


def small_spaces():
    return [X for n in range(1, 5) for X in all_spaces(n)]


def meet_closed_base(X):
    """The coatoms' meet closure with the empty and full sets (T1 spaces)."""
    base = {0, X.full}
    base.update(X.full & ~(1 << p) for p in range(X.point_count))
    for a in list(base):
        for b in list(base):
            base.add(a & b)
    return sorted(base)


def test_hi_matches_reference_on_small_lattices():
    for n, i, L in small_lattices(8):
        assert satisfies_HI(L) == reference_HI(L), (n, i)


def test_dim_le1_matches_reference_on_small_lattices():
    for n, i, L in small_lattices(8):
        assert satisfies_dim_le1(L) == reference_dim_le1(L), (n, i)


def test_the_dim_le1_verdict_alone_agrees_with_the_full_decision():
    # the verdict and the first failing quadruple of the scan that keeps a
    # bitmask of covered partner keys in place of witness rows
    for n in range(2, 10):
        for L in lattices_of_size(n):
            ok, found = satisfies_dim_le1(L)
            assert dim_le1_holds(L) is ok, (n, L.meet)
            assert _dim_le1_first_failure(L) == (None if ok else found), (n, L.meet)


def test_the_dim_le1_verdict_alone_keeps_no_witness_rows():
    # on 2^6 the 729 rows of 729 witnesses take about 44 MB; one row at a time, about 1.5 MB
    L = powerset_lattice(6)
    tracemalloc.start()
    try:
        assert dim_le1_holds(L)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


def test_dim_le1_matches_the_tuple_keyed_search():
    """The rows by key number against the search with its memo keyed by
    tuples: the verdict, the witness items in order, the first offender."""
    lattices = [L for _, _, L in small_lattices(8)] + lattices_of_size(9)[::10] + [powerset_lattice(4)]
    for L in lattices:
        ok, found = satisfies_dim_le1(L)
        want_ok, want = frozen_dim_le1(L)
        assert ok == want_ok, L
        assert (list(found.items()) if ok else found) == (list(want.items()) if ok else want), L


def test_the_dim_le1_sweep_is_pinned():
    # the digest the search gave with its memo keyed by tuples
    answers = [repr(satisfies_dim_le1(L)) for _, _, L in small_lattices(8)]
    assert sum(a.startswith("(True") for a in answers) == 239
    assert hashlib.sha256("\n".join(answers).encode()).hexdigest() == (
        "5b9d1191ba2b2ee5cf34efe67f5cfc374172d5397464ac6186e6454ef9468a0e"
    )


def test_sixteen_element_boolean_lattice():
    L = powerset_lattice(4)
    assert satisfies_HI(L) == reference_HI(L) == (True, None)
    ok, witnesses = satisfies_dim_le1(L)
    assert ok and (ok, witnesses) == reference_dim_le1(L)
    assert len(witnesses) == 81 * 81


def test_the_dim_le1_witness_map_of_2_to_the_5_has_9_to_the_5_entries():
    # one entry per pair of disjoint pairs, and each coordinate of a disjoint
    # pair lies in x, in y or in neither: (3^k)^2 entries on 2^k, as 81 * 81
    # on 2^4 above
    ok, witnesses = satisfies_dim_le1(powerset_lattice(5))
    assert ok and len(witnesses) == 9**5 == 59_049


def test_closed_set_lattices_and_space_searches_match_reference():
    for X in small_spaces():
        L = closed_set_lattice(X)
        assert satisfies_HI(L) == reference_HI(L), X
        assert satisfies_dim_le1(L) == reference_dim_le1(L), X
        fam = X.closed_sorted()
        assert chicane_condition(X) == reference_pliand_chicanes(X, fam), X
        if is_T1(X) and X.point_count >= 2:
            base = meet_closed_base(X)
            assert base_restricted_HI(X, base) == reference_pliand_chicanes(X, base), X


def test_find_chicane_matches_reference_on_every_pliand_foursome():
    count = 0
    for n, i, L in small_lattices(7):
        for fs in pliand_foursomes(L):
            assert find_chicane(L, fs) == reference_find_chicane(L, fs), (n, i, fs)
            count += 1
    assert count == 20423


def test_having_a_chicane_is_closed_downward():
    """The premise of testing only maximal foursomes: lowering one
    coordinate of a pliand foursome with a chicane keeps a chicane."""
    for n, i, L in small_lattices(7):
        has = {fs: find_chicane(L, fs) is not None for fs in pliand_foursomes(L)}
        below = [[y for y in L.elements() if L.leq(y, x)] for x in L.elements()]
        for fs, ok in has.items():
            if not ok:
                continue
            q = (fs.c, fs.d, fs.f, fs.g)
            for k in range(4):
                for y in below[q[k]]:
                    lower = PliandFoursome(*q[:k], y, *q[k + 1 :])
                    assert has[lower], (n, i, fs, lower)


def test_a_foursome_has_a_chicane_iff_its_mirror_has():
    """The premise of testing one foursome of each mirror pair:
    (c, d, f, g; z1, z2, z3) -> (d, c, g, f; z3, z2, z1) keeps every
    identity, and (x0, x1, x2) -> (x2, x1, x0) does for closed sets."""
    for n, i, L in small_lattices(7):
        for fs in pliand_foursomes(L):
            mirror = PliandFoursome(fs.d, fs.c, fs.g, fs.f)
            assert (find_chicane(L, fs) is None) == (find_chicane(L, mirror) is None), (n, i, fs)
    for X in small_spaces():
        fam = X.closed_sorted()
        for c, d, f, g in itertools.product(fam, repeat=4):
            if not (c & d or c & f or d & g):
                assert (space_chicane(X, c, d, f, g, fam) is None) == (
                    space_chicane(X, d, c, g, f, fam) is None
                ), (X, c, d, f, g)


def count_chicane_tests(L):
    """(first foursome without a chicane, chicane tests made) of satisfies_HI's scan."""
    above = [sum(1 << y for y in L.elements() if y != x and L.leq(x, y)) for x in L.elements()]
    tested = []

    def has_chicane(q):
        tested.append(q)
        return _least_chicane(L, *q) is not None

    return _first_without_chicane(_masks(L)[0], above, has_chicane), len(tested)


def test_the_scan_skips_mirrors_and_covered_foursomes():
    # a full rescan after the failing maximal foursome made 72 tests here
    assert count_chicane_tests(lattices_of_size(5)[2]) == ((1, 2, 0, 0), 6)
    # 81 maximal foursomes: 40 mirror pairs and (0, 0, 15, 15), its own mirror
    assert count_chicane_tests(powerset_lattice(4)) == (None, 41)


def test_the_size_8_sweep_is_pinned():
    # the digests the scan gave before mirror pairs and the resumed scan
    script = Path(__file__).resolve().parents[1] / "scripts" / "hi_sweep.py"
    proc = subprocess.run([sys.executable, str(script), "--size", "8"], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[:4] == [
        "lattices HI 177, not HI 45",
        "lattices sha256 aaaa17143ca9edbb6fef7f3c443493a33747a96f720816c7b583d632d26c39d2",
        "spaces chicane condition 286, not 103",
        "spaces sha256 70dce0ecfca2c8d3d48d9c19df8c0186c06f967842b6f04e0d080cefa308c3e8",
    ]


def test_maximal_foursomes_are_those_with_nothing_pliand_above():
    for n, i, L in small_lattices(6):
        pliand = [(fs.c, fs.d, fs.f, fs.g) for fs in pliand_foursomes(L)]
        expected = [
            q
            for q in pliand
            if not any(r != q and all(L.leq(a, b) for a, b in zip(q, r)) for r in pliand)
        ]
        perp = [sum(1 << y for y in L.elements() if L.meet[x][y] == L.bottom) for x in L.elements()]
        above = [sum(1 << y for y in L.elements() if y != x and L.leq(x, y)) for x in L.elements()]
        assert list(_maximal_foursomes(perp, above)) == expected, (n, i)


def test_least_offender_below_a_maximal_foursome():
    """The first failing foursome of this lattice is not maximal, so the
    verdict comes from the ordered scan after a maximal foursome fails."""
    L = lattices_of_size(5)[2]
    fs = PliandFoursome(1, 2, 0, 0)
    assert satisfies_HI(L) == (False, fs)
    bigger = [
        other
        for other in pliand_foursomes(L)
        if other != fs
        and all(L.leq(a, b) for a, b in zip((fs.c, fs.d, fs.f, fs.g), (other.c, other.d, other.f, other.g)))
    ]
    assert bigger and all(find_chicane(L, other) is None for other in bigger)


@pytest.mark.parametrize(
    "fs",
    [
        PliandFoursome(-3, -2, 0, 0),
        PliandFoursome(0, 0, 0, -1),
        PliandFoursome(9, 0, 0, 0),
        PliandFoursome(0, 0, 4, 0),
        PliandFoursome(True, 0, 0, 0),
        PliandFoursome(0, 0, 0, False),
    ],
)
def test_find_chicane_rejects_indices_outside_the_lattice(fs):
    with pytest.raises(PreconditionViolated):
        find_chicane(powerset_lattice(2), fs)
