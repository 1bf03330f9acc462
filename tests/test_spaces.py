import subprocess
import sys
import time
from pathlib import Path

import pytest

from oracles import brute_force_spaces
from wallman_lab.errors import (
    MalformedTables,
    NotABase,
    NotClosed,
    NotContinuous,
    NotSurjective,
    PreconditionViolated,
)
from wallman_lab.lattice import chain, conn, lattice_isomorphism, powerset_lattice
from wallman_lab.spaces import (
    all_spaces,
    base_restricted_HI,
    chicane_condition,
    closed_set_lattice,
    continua,
    discrete_space,
    generate_space,
    image_mask,
    is_connected,
    is_continuous,
    is_crooked_between,
    is_base,
    is_discrete,
    is_hereditarily_indecomposable,
    is_surjective,
    is_T1,
    is_weakly_confluent,
    make_space,
    mask_of,
    points_of,
    space_chicane,
    space_from_sets,
)


class TestConstruction:
    def test_family_must_contain_empty_and_full(self):
        with pytest.raises(MalformedTables):
            make_space(2, {0b01, 0b11})

    def test_a_closed_set_must_name_known_points(self):
        with pytest.raises(MalformedTables, match="^closed set 100 mentions unknown points$"):
            make_space(2, {0, 0b100, 0b11})

    def test_family_must_be_union_closed(self):
        with pytest.raises(MalformedTables):
            make_space(3, {0, 0b001, 0b010, 0b111})  # missing {0,1}

    @pytest.mark.parametrize(
        "build, args",
        [
            (discrete_space, (-1,)),
            (make_space, (-1, [0])),
            (generate_space, (-1, [])),
            (space_from_sets, (-1, [[]])),
            (discrete_space, (2.0,)),
            (discrete_space, (True,)),
            (make_space, (True, [0, 1])),
        ],
    )
    def test_a_point_count_must_be_a_non_negative_int(self, build, args):
        message = f"^{build.__name__} takes a non-negative int number of points, not {args[0]!r}$"
        with pytest.raises(PreconditionViolated, match=message):
            build(*args)

    def test_the_lattice_constructors_keep_their_messages(self):
        with pytest.raises(PreconditionViolated, match="^chain takes an int number of elements, not 2.0$"):
            chain(2.0)
        with pytest.raises(PreconditionViolated, match="^powerset_lattice takes an int number of points, not True$"):
            powerset_lattice(True)

    def test_generate_space_closes_family(self):
        X = generate_space(3, [0b011, 0b110])
        assert 0b010 in X.closed  # the intersection
        assert 0b111 in X.closed

    def test_closure_and_interior(self):
        X = generate_space(3, [0b011, 0b110])
        assert X.closure(0b001) == 0b011
        assert X.interior(0b011) == 0b001


class TestClosedSetLattice:
    def test_discrete_two_points_gives_boolean_algebra(self):
        L = closed_set_lattice(discrete_space(2))
        assert lattice_isomorphism(L, powerset_lattice(2)) is not None

    def test_one_point_space_gives_two_element_lattice(self):
        L = closed_set_lattice(discrete_space(1))
        assert lattice_isomorphism(L, chain(2)) is not None

    def test_sierpinski_gives_three_chain(self):
        X = space_from_sets(2, [[], [1], [0, 1]])
        L = closed_set_lattice(X)
        assert lattice_isomorphism(L, chain(3)) is not None


class TestConnectedness:
    def test_singleton_connected(self):
        X = discrete_space(3)
        assert is_connected(X, 0b001)

    def test_pair_in_discrete_space_disconnected(self):
        assert not is_connected(discrete_space(3), 0b011)

    def test_requires_closed_argument(self):
        X = space_from_sets(2, [[], [1], [0, 1]])
        with pytest.raises(NotClosed):
            is_connected(X, 0b01)

    def test_discrete_continua_are_singletons(self):
        assert continua(discrete_space(3)) == [0b001, 0b010, 0b100]

    def test_continua_cap(self):
        with pytest.raises(PreconditionViolated):
            continua(discrete_space(13))


class TestHereditarilyIndecomposable:
    def test_discrete_spaces_are_HI(self):
        for n in range(1, 5):
            assert is_hereditarily_indecomposable(discrete_space(n))[0]

    def test_two_overlapping_arcs_fail(self):
        X = generate_space(3, [0b011, 0b110])
        ok, pair = is_hereditarily_indecomposable(X)
        assert not ok
        a, b = pair
        assert a & b and a & ~b and b & ~a


class TestCrookedness:
    def test_discrete_always_crooked(self):
        X = discrete_space(4)
        ok, table = is_crooked_between(X, 0b0001, 0b0010)
        assert ok
        for (f, g), triple in table.items():
            assert triple is not None
            x0, x1, x2 = triple
            assert 0b0001 & ~x0 == 0 and 0b0010 & ~x2 == 0
            assert x0 | x1 | x2 == X.full and x0 & x2 == 0
            assert x0 & x1 & g == 0 and x1 & x2 & f == 0

    def test_rejects_equal_sets(self):
        with pytest.raises(PreconditionViolated):
            is_crooked_between(discrete_space(2), 0b01, 0b01)

    def test_rejects_a_set_that_is_not_closed(self):
        sierp = space_from_sets(2, [[], [1], [0, 1]])
        with pytest.raises(PreconditionViolated, match="^c and d must be closed$"):
            is_crooked_between(sierp, 0b01, 0b10)

    def test_chicane_condition_on_discrete(self):
        for n in range(1, 4):
            assert chicane_condition(discrete_space(n))[0]

    def test_space_chicane_canonical_witness(self):
        X = discrete_space(4)
        c, d = 0b0001, 0b0010
        triple = space_chicane(X, c, d, X.full & ~c, X.full & ~d)
        assert triple is not None


class TestBaseRestrictedHI:
    def test_full_family_trivially_agrees(self):
        X = discrete_space(3)
        assert base_restricted_HI(X, X.closed_sorted())[0]

    def test_rejects_non_base(self):
        X = discrete_space(2)
        with pytest.raises(NotABase):
            base_restricted_HI(X, [0, X.full])

    def test_rejects_a_family_not_closed_under_intersection(self):
        X = discrete_space(3)
        with pytest.raises(NotABase, match="^base must be closed under intersection$"):
            base_restricted_HI(X, [0, 0b011, 0b110, 0b111])

    def test_a_family_with_a_set_that_is_not_closed_is_no_base(self):
        sierp = space_from_sets(2, [[], [1], [0, 1]])
        assert is_base(sierp, [0, 0b10, 0b11])
        assert not is_base(sierp, [0, 0b01, 0b10, 0b11])


class TestSeparationAndMaps:
    def test_T1_iff_discrete_at_finite_scale_examples(self):
        assert is_T1(discrete_space(3)) and is_discrete(discrete_space(3))
        sierp = space_from_sets(2, [[], [1], [0, 1]])
        assert not is_T1(sierp) and not is_discrete(sierp)

    def test_identity_continuous(self):
        X = generate_space(3, [0b011, 0b110])
        assert is_continuous([0, 1, 2], X, X)

    def test_map_to_point_continuous(self):
        X = generate_space(3, [0b011])
        assert is_continuous([0, 0, 0], X, discrete_space(1))

    def test_sierpinski_swap_not_continuous(self):
        sierp = space_from_sets(2, [[], [1], [0, 1]])
        assert not is_continuous([1, 0], sierp, sierp)

    def test_composition_of_continuous_maps(self, rng):
        spaces = [s for s in all_spaces(3)]
        for _ in range(50):
            X, Y, Z = (rng.choice(spaces) for _ in range(3))
            f = [rng.randrange(3) for _ in range(3)]
            g = [rng.randrange(3) for _ in range(3)]
            if is_continuous(f, X, Y) and is_continuous(g, Y, Z):
                assert is_continuous([g[f[p]] for p in range(3)], X, Z)

    def test_weak_confluence_trivial_cases(self):
        X = discrete_space(2)
        ok, offender = is_weakly_confluent([0, 1], X, X)
        assert ok and offender is None
        ok, _ = is_weakly_confluent([0, 0], X, discrete_space(1))
        assert ok

    def test_weak_confluence_fails_on_a_continuum_no_continuum_maps_onto(self):
        # the Sierpinski space is connected, the discrete X has no two-point continuum
        assert is_weakly_confluent([0, 1], discrete_space(2), make_space(2, [0, 0b01, 0b11])) == (False, 0b11)

    def test_weak_confluence_requires_continuity(self):
        sierp = space_from_sets(2, [[], [1], [0, 1]])
        with pytest.raises(NotContinuous, match="^map is not continuous$"):
            is_weakly_confluent([1, 0], sierp, sierp)

    def test_weak_confluence_requires_a_map_onto(self):
        X = discrete_space(2)
        with pytest.raises(NotSurjective, match="^map is not onto$"):
            is_weakly_confluent([0, 0], X, X)

    @pytest.mark.parametrize("check", [is_continuous, is_surjective, is_weakly_confluent])
    @pytest.mark.parametrize("f", [[0], [0, 5], [0, -1], (0, True)])
    def test_a_map_must_send_each_point_to_a_point(self, check, f):
        # too short, a point past Y, a negative index and a bool: none sends each point of X to one of Y
        with pytest.raises(PreconditionViolated, match=r" is not a sequence of 2 point indices in 0\.\.0$"):
            check(f, discrete_space(2), discrete_space(1))

    def test_image_mask(self):
        assert image_mask([1, 1, 0], 0b011) == 0b010
        assert is_surjective([1, 1, 0], discrete_space(3), discrete_space(2))


class TestSpaceSweep:
    def test_all_spaces_counts(self):
        # numbers of topologies on n labeled points
        assert len(all_spaces(1)) == 1
        assert len(all_spaces(2)) == 4
        assert len(all_spaces(3)) == 29
        assert len(all_spaces(4)) == 355
        assert len(all_spaces(5)) == 6942

    @pytest.mark.parametrize("n", range(5))
    def test_all_spaces_is_the_brute_force_loop(self, n):
        # same spaces in the same order as the loop over every subfamily
        assert all_spaces(n) == brute_force_spaces(n)

    def test_make_space_accepts_every_five_point_space(self):
        for X in all_spaces(5):
            assert make_space(5, X.closed) == X

    def test_five_points_take_under_half_a_second(self):
        started = time.perf_counter()
        spaces = all_spaces.__wrapped__(5)  # uncached
        assert time.perf_counter() - started < 0.5
        assert len(spaces) == 6942

    @pytest.mark.parametrize("n", [-1, 7, 64])
    def test_all_spaces_refuses_point_counts_beyond_its_cap(self, n):
        # 7 points would be 9.5 M spaces; the old loop would run 2^126 times
        started = time.perf_counter()
        with pytest.raises(PreconditionViolated):
            all_spaces(n)
        assert time.perf_counter() - started < 0.1

    @pytest.mark.parametrize("n", [True, 2.0], ids=repr)
    def test_all_spaces_refuses_a_point_count_that_is_not_an_int(self, n):
        # asked after the int of equal value, so a cache keyed on value alone
        # would hand back its spaces
        all_spaces(int(n))
        with pytest.raises(PreconditionViolated, match=f"not {n!r}$"):
            all_spaces(n)

    def test_the_space_census_agrees_with_a000798(self):
        script = Path(__file__).resolve().parents[1] / "scripts" / "space_census.py"
        proc = subprocess.run(
            [sys.executable, str(script), "--max-points", "5"], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        rows = [line.split() for line in proc.stdout.splitlines()[1:]]
        assert [(row[1], row[2]) for row in rows] == [
            ("1", "ok"), ("1", "ok"), ("4", "ok"), ("29", "ok"), ("355", "ok"), ("6942", "ok")
        ]
        assert rows[4][5] == "83cdc3f75163cb395b33129c0e39d7faaf84b20c46056ec600123885671f7137"
        assert rows[5][5] == "59ee98d6224b1d929ed19e7b7dd4f0315fedeb17e077b6c93f142a764e9bcdbe"

    def test_discrete_connectedness_matches_lattice_conn(self):
        for n in range(1, 5):
            X = discrete_space(n)
            L = closed_set_lattice(X)
            assert conn(L, L.top)[0] == (n <= 1) == is_connected(X, X.full)

    def test_mask_round_trip(self):
        assert points_of(mask_of([0, 2, 5])) == [0, 2, 5]
