import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wallman_lab.errors import NonCanonicalInput, NotApplicable, NotDisjoint
from wallman_lab.intervals import (
    EMPTY,
    TOP,
    RationalIntervalSet,
    difference_pieces,
    disjunctive_witness,
    join,
    meet,
    normality_witness,
    refute_partition,
    riset,
)

import oracles


def fractions(max_den=12):
    return st.fractions(min_value=0, max_value=1, max_denominator=max_den)


@st.composite
def interval_sets(draw, max_pieces=4):
    pairs = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_pieces))):
        a = draw(fractions())
        b = draw(fractions())
        pairs.append((min(a, b), max(a, b)))
    return riset(*pairs)


class TestCanonicalForm:
    def test_riset_merges_overlaps(self):
        a = riset((0, Fraction(1, 2)), (Fraction(1, 4), Fraction(3, 4)))
        assert a == riset((0, Fraction(3, 4)))

    def test_riset_merges_touching_closed_intervals(self):
        a = riset((0, Fraction(1, 2)), (Fraction(1, 2), 1))
        assert a == TOP

    def test_constructor_rejects_out_of_range(self):
        with pytest.raises(NonCanonicalInput):
            RationalIntervalSet(((Fraction(-1, 2), Fraction(1, 2)),))

    def test_constructor_rejects_unsorted(self):
        with pytest.raises(NonCanonicalInput):
            RationalIntervalSet(
                ((Fraction(1, 2), Fraction(3, 4)), (Fraction(0), Fraction(1, 4)))
            )

    def test_riset_rejects_empty_interval(self):
        with pytest.raises(NonCanonicalInput):
            riset((Fraction(1, 2), Fraction(1, 4)))

    def test_degenerate_point_interval_allowed(self):
        a = riset((Fraction(1, 2), Fraction(1, 2)))
        assert a.contains(Fraction(1, 2)) and not a.contains(Fraction(1, 3))


class TestLatticeOperations:
    def test_meet_is_intersection(self):
        a = riset((0, Fraction(1, 2)))
        b = riset((Fraction(1, 4), 1))
        assert meet(a, b) == riset((Fraction(1, 4), Fraction(1, 2)))

    def test_join_is_union(self):
        a = riset((0, Fraction(1, 4)))
        b = riset((Fraction(1, 2), 1))
        assert join(a, b).intervals == (
            (Fraction(0), Fraction(1, 4)),
            (Fraction(1, 2), Fraction(1)),
        )

    def test_bottom_and_top(self):
        assert EMPTY.is_empty()
        assert meet(TOP, EMPTY) == EMPTY
        assert join(TOP, EMPTY) == TOP


class TestNormalityWitness:
    def test_simple_separation(self):
        x = riset((0, Fraction(1, 4)))
        y = riset((Fraction(1, 2), 1))
        u, v = normality_witness(x, y)
        assert meet(x, u) == EMPTY
        assert meet(y, v) == EMPTY
        assert join(u, v) == TOP

    def test_interleaved_components(self):
        x = riset((0, Fraction(1, 8)), (Fraction(1, 2), Fraction(5, 8)))
        y = riset((Fraction(1, 4), Fraction(3, 8)), (Fraction(3, 4), 1))
        u, v = normality_witness(x, y)
        assert meet(x, u) == EMPTY and meet(y, v) == EMPTY and join(u, v) == TOP

    def test_rejects_overlapping_inputs(self):
        with pytest.raises(NotDisjoint):
            normality_witness(riset((0, Fraction(1, 2))), riset((Fraction(1, 4), 1)))


class TestDisjunctiveWitness:
    def test_witness_below_a_missing_b(self):
        a = riset((0, Fraction(1, 2)))
        b = riset((Fraction(1, 4), 1))
        c = disjunctive_witness(a, b)
        assert not c.is_empty()
        assert meet(c, a) == c
        assert meet(c, b) == EMPTY

    def test_rejects_a_below_b(self):
        a = riset((0, Fraction(1, 4)))
        with pytest.raises(NotApplicable):
            disjunctive_witness(a, TOP)


class TestRefutePartition:
    def test_overlap_reported(self):
        reason, evidence = refute_partition(
            riset((0, Fraction(1, 2))), riset((Fraction(1, 4), 1))
        )
        assert reason == "meet-nonempty" and not evidence.is_empty()

    def test_gap_reported(self):
        reason, _ = refute_partition(
            riset((0, Fraction(1, 4))), riset((Fraction(1, 2), 1))
        )
        assert reason == "join-not-top"

    def test_empty_piece_reported(self):
        reason, _ = refute_partition(EMPTY, TOP)
        assert reason == "x-empty"


@settings(max_examples=300, deadline=None)
@given(interval_sets(), interval_sets(), interval_sets())
def test_lattice_laws_hold(a, b, c):
    assert meet(a, b) == meet(b, a)
    assert join(a, b) == join(b, a)
    assert meet(a, join(a, b)) == a
    assert join(a, meet(a, b)) == a
    assert meet(a, join(b, c)) == join(meet(a, b), meet(a, c))


@settings(max_examples=300, deadline=None)
@given(interval_sets(), interval_sets())
def test_normality_witness_on_disjoint_pairs(a, b):
    if meet(a, b) != EMPTY:
        return
    u, v = normality_witness(a, b)
    assert meet(a, u) == EMPTY and meet(b, v) == EMPTY and join(u, v) == TOP


# ---------------------------------------------------------------- against the frozen copy
# `oracles` keeps the module as it was when every comparison was one of
# Fractions.  The int-keyed module must give the same values, the same
# exceptions with the same messages, and endpoints of exactly type Fraction.

REFERENCE = {
    riset: oracles.reference_riset,
    meet: oracles.reference_meet,
    join: oracles.reference_join,
    difference_pieces: oracles.reference_difference_pieces,
    normality_witness: oracles.reference_normality_witness,
    disjunctive_witness: oracles.reference_disjunctive_witness,
    refute_partition: oracles.reference_refute_partition,
}


def plain(value, types):
    """value with every interval set as ("set", intervals); the endpoint
    types are collected in `types`."""
    if isinstance(value, (RationalIntervalSet, oracles.ReferenceIntervalSet)):
        types.update(type(e) for iv in value.intervals for e in iv)
        return ("set", value.intervals)
    if isinstance(value, (tuple, list)):
        return tuple(plain(v, types) for v in value)
    if isinstance(value, Fraction):
        types.add(type(value))
    return value


def outcome(fn, *args):
    types = set()
    try:
        return ("value", plain(fn(*args), types)), types
    except Exception as err:  # noqa: BLE001 - the exception is what is compared
        return (type(err), str(err)), types


def reference_args(args):
    return [oracles.ReferenceIntervalSet(a.intervals) if isinstance(a, RationalIntervalSet) else a for a in args]


def assert_same(fn, *args):
    got, types = outcome(fn, *args)
    want, _ = outcome(REFERENCE[fn], *reference_args(args))
    assert got == want, (fn.__name__, args)
    assert types <= {Fraction}, (fn.__name__, args, types)
    return got


def endpoints():
    """Rationals in and just outside [0,1], as Fractions, ints and strings."""
    near = st.fractions(min_value=Fraction(-1, 2), max_value=Fraction(3, 2), max_denominator=12)
    return st.one_of(near, near.map(str), st.integers(min_value=-1, max_value=2), fractions())


EDGE_PAIRS = [
    (),
    ((0, 0),),
    ((1, 1),),
    ((Fraction(1, 2), Fraction(1, 2)),),
    ((0, Fraction(1, 2)), (Fraction(1, 2), 1)),
    ((Fraction(1, 3), "2/3"), ("1/3", Fraction(1, 3))),
    ((0, 1), (0, 1)),
    ((Fraction(1, 2), Fraction(1, 4)),),
    ((0, 1), (Fraction(3, 4), Fraction(1, 4))),
    ((-1, 0),),
    ((1, 2),),
    ((Fraction(-1, 3), Fraction(1, 3)), (Fraction(2, 3), Fraction(4, 3))),
    (("0", "1/5"), ("2/5", "3/5"), (Fraction(4, 5), 1)),
]


@pytest.mark.parametrize("pairs", EDGE_PAIRS)
def test_riset_matches_the_reference_on_edge_cases(pairs):
    assert_same(riset, *pairs)


@pytest.mark.parametrize(
    "intervals",
    [
        (),
        ((Fraction(0), Fraction(0)),),
        ((Fraction(0), Fraction(1, 2)), (Fraction(1, 2), Fraction(1))),  # touching
        ((Fraction(1, 2), Fraction(3, 4)), (Fraction(0), Fraction(1, 4))),  # unsorted
        ((Fraction(1, 2), Fraction(1, 4)),),  # reversed
        ((Fraction(-1, 2), Fraction(1, 2)),),
        ((Fraction(1, 2), Fraction(3, 2)),),
        ((0, Fraction(1, 2)),),  # an int endpoint
        ((Fraction(0), "1/2"),),
        ((Fraction(0), Fraction(1, 4)), (Fraction(1, 2), 1)),
        ((Fraction(3, 2), Fraction(2)), (0, 1)),  # the range fails before the type
        ((Fraction(1, 2), Fraction(1)), (Fraction(0), 1)),  # the type is checked before the order
        ((Fraction(0), Fraction(1, 3)), (Fraction(2, 3), Fraction(1))),
    ],
)
def test_construction_matches_the_reference(intervals):
    def build(cls):
        try:
            return "value", cls(intervals).intervals
        except NonCanonicalInput as err:
            return NonCanonicalInput, str(err)

    assert build(RationalIntervalSet) == build(oracles.ReferenceIntervalSet)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(endpoints(), endpoints()), max_size=4))
def test_riset_matches_the_reference_on_drawn_pairs(pairs):
    assert_same(riset, *pairs)


@settings(max_examples=300, deadline=None)
@given(interval_sets(), interval_sets())
def test_operations_match_the_reference(a, b):
    for fn in (meet, join, difference_pieces, normality_witness, disjunctive_witness, refute_partition):
        assert_same(fn, a, b)
        assert_same(fn, b, a)


@pytest.mark.parametrize(
    "a, b",
    [
        (EMPTY, EMPTY),
        (EMPTY, TOP),
        (TOP, TOP),
        (riset((Fraction(1, 2), Fraction(1, 2))), TOP),
        (riset((Fraction(1, 2), Fraction(1, 2))), EMPTY),
        (riset((0, Fraction(1, 2))), riset((Fraction(1, 2), 1))),
        (riset((0, Fraction(1, 3))), riset((Fraction(1, 3), Fraction(1, 3)))),
        (riset((0, 0), (1, 1)), riset((Fraction(1, 7), Fraction(6, 7)))),
        (riset((0, Fraction(1, 5)), (Fraction(2, 5), 1)), riset((Fraction(1, 5), Fraction(2, 5)))),
    ],
)
def test_operations_match_the_reference_on_edge_cases(a, b):
    for fn in (meet, join, difference_pieces, normality_witness, disjunctive_witness, refute_partition):
        assert_same(fn, a, b)
        assert_same(fn, b, a)


def test_the_interval_sweep_is_pinned():
    # the digest the sweep gave while every comparison was one of Fractions
    script = Path(__file__).resolve().parents[1] / "scripts" / "interval_sweep.py"
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[:3] == [
        "inputs 2000, laws held 16000 of 16000, difference witnesses 1268",
        "refutations join-not-top 2000",
        "answers sha256 aa0e8603fcf040516f43eafba11f4c61b298362e367f3be214a0d030b810ca30",
    ]


def test_construction_is_validated_under_python_O():
    code = (
        "from fractions import Fraction as F\n"
        "from wallman_lab.errors import NonCanonicalInput\n"
        "from wallman_lab.intervals import RationalIntervalSet\n"
        "for bad in [((F(1, 2), F(3, 2)),), ((F(1, 2), F(3, 4)), (F(0), F(1, 4))), ((0, F(1)),)]:\n"
        "    try:\n"
        "        RationalIntervalSet(bad)\n"
        "    except NonCanonicalInput as err:\n"
        "        print(err)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.stdout.splitlines() == [
        "interval [1/2,3/2] not inside [0,1]",
        "intervals must be sorted and non-adjacent",
        "endpoints must be Fractions",
    ], proc.stderr
