"""`lattice._masks` and the code that reads it, against the definitions of
the four masks and against the frozen copies in `oracles` that built their
own masks or walked `leq` element by element."""

import pytest

from wallman_lab import lattice
from wallman_lab.cli import _PREDICATES, hasse_dot
from wallman_lab.enumeration import lattices_of_size
from wallman_lab.errors import NotDistributive, WallmanLabError
from wallman_lab.lattice import (
    _bits,
    _masks,
    birkhoff_poset,
    diamond_m3,
    is_disjunctive,
    is_distributive,
    is_normal,
    join_irreducibles,
    lattice_isomorphism,
    powerset_lattice,
    validate,
)
from wallman_lab.wallman import atoms, filters, is_boolean, is_filter, stone_space

from oracles import (
    frozen_atoms,
    frozen_birkhoff_poset,
    frozen_filters,
    frozen_hasse_dot,
    frozen_is_boolean,
    frozen_is_disjunctive,
    frozen_is_filter,
    frozen_is_normal,
    frozen_join_irreducibles,
    frozen_lattice_isomorphism,
    frozen_stone_space,
    frozen_two_masks,
)

SIZES = range(2, 9)


def _as_items(result):
    """(verdict, witness) with a witness map as its item list, so that order counts."""
    verdict, witness = result
    return verdict, list(witness.items()) if isinstance(witness, dict) else witness


def _birkhoff(decide, L):
    try:
        return decide(L)
    except NotDistributive as err:
        return str(err)


def _outcome(fn, L):
    try:
        return fn(L)
    except WallmanLabError as err:
        return type(err), str(err)


def _reversed_copy(L):
    """L with its element indices reversed: the same lattice under other labels."""
    n = L.n
    old = list(range(n - 1, -1, -1))  # new index i is old index old[i]
    meet = [[n - 1 - L.meet[old[a]][old[b]] for b in range(n)] for a in range(n)]
    join = [[n - 1 - L.join[old[a]][old[b]] for b in range(n)] for a in range(n)]
    return validate([L.names[i] for i in old], meet, join, n - 1 - L.bottom, n - 1 - L.top)


@pytest.mark.parametrize("n", SIZES)
def test_masks_match_their_definitions(n):
    for L in lattices_of_size(n):
        perp, cotop, down, up = _masks(L)
        assert (list(perp), list(cotop)) == frozen_two_masks(L)  # the copy builds lists
        for x in L.elements():
            for y in L.elements():
                assert bool(perp[x] >> y & 1) == (L.meet[x][y] == L.bottom)
                assert bool(cotop[x] >> y & 1) == (L.join[x][y] == L.top)
                assert bool(down[x] >> y & 1) == L.leq(y, x)
                assert bool(up[x] >> y & 1) == L.leq(x, y)


@pytest.mark.parametrize("n", SIZES)
def test_readers_match_the_frozen_copies(n):
    for L in lattices_of_size(n):
        assert _as_items(is_normal(L)) == _as_items(frozen_is_normal(L))
        assert is_disjunctive(L) == frozen_is_disjunctive(L)
        assert join_irreducibles(L) == frozen_join_irreducibles(L)
        assert _birkhoff(birkhoff_poset, L) == _birkhoff(frozen_birkhoff_poset, L)
        assert filters(L) == frozen_filters(L)
        assert atoms(L) == frozen_atoms(L)
        assert is_boolean(L) == frozen_is_boolean(L)
        assert hasse_dot(L) == frozen_hasse_dot(L)


def test_readers_match_on_relabeled_lattices():
    for n in range(2, 7):
        for L in map(_reversed_copy, lattices_of_size(n)):
            assert _as_items(is_normal(L)) == _as_items(frozen_is_normal(L))
            assert is_disjunctive(L) == frozen_is_disjunctive(L)
            assert join_irreducibles(L) == frozen_join_irreducibles(L)
            assert atoms(L) == frozen_atoms(L)
            assert hasse_dot(L) == frozen_hasse_dot(L)


def test_is_filter_matches_on_every_subset():
    for n in range(2, 6):
        for L in lattices_of_size(n):
            for mask in range(1 << n):
                members = set(_bits(mask))
                assert is_filter(L, members) == frozen_is_filter(L, members), (L, members)


def test_lattice_isomorphism_matches_on_every_pair():
    small = [L for n in range(2, 7) for L in lattices_of_size(n)]
    small += [_reversed_copy(L) for L in small]
    for A in small:
        for B in small:
            assert lattice_isomorphism(A, B) == frozen_lattice_isomorphism(A, B)


def _builds(fn, L):
    """How many times fn(L) builds masks: the cache misses of `_masks`, with
    the kept masks dropped first."""
    lattice._masks.cache_clear()
    fn(L)
    return lattice._masks.cache_info().misses


@pytest.mark.parametrize("fn", [stone_space, birkhoff_poset], ids=["stone_space", "birkhoff_poset"])
@pytest.mark.parametrize("k", [1, 3])
def test_a_call_builds_the_masks_once(fn, k):
    # stone_space reads them in is_boolean, filters (through wallman_space), atoms and itself
    assert _builds(fn, powerset_lattice(k)) == 1


@pytest.mark.parametrize("L", [powerset_lattice(3), diamond_m3(), lattices_of_size(6)[7]], ids=["2^3", "M3", "size 6"])
def test_the_check_predicates_build_the_masks_once(L):
    assert _builds(lambda L: [decide(L) for decide in _PREDICATES.values()], L) == 1


def test_the_kept_tables_are_tuples():
    for L in lattices_of_size(5):
        assert [type(t) for t in _masks(L)] == [tuple] * 4


def test_is_boolean_builds_the_masks_only_for_a_distributive_lattice():
    for L in lattices_of_size(5):
        assert _builds(is_boolean, L) == (1 if is_distributive(L)[0] else 0), L.meet


@pytest.mark.parametrize("n", range(2, 9))
def test_stone_space_matches_the_frozen_copy(n):
    for L in lattices_of_size(n):
        assert _outcome(stone_space, L) == _outcome(frozen_stone_space, L)
    assert stone_space(powerset_lattice(4)) == frozen_stone_space(powerset_lattice(4))
