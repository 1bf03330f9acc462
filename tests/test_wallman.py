import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wallman_lab.enumeration import lattices_of_size
from wallman_lab.errors import (
    NonSingletonFiber,
    NotBoolean,
    NotDistributive,
    PreconditionViolated,
)
from wallman_lab.lattice import (
    chain,
    conn,
    diamond_m3,
    enumerate_distributive,
    is_disjunctive,
    powerset_lattice,
)
from wallman_lab.spaces import (
    discrete_space,
    generate_space,
    is_discrete,
    points_of,
    space_from_sets,
)
from wallman_lab.wallman import (
    alexandroff_preimage,
    atoms,
    boolean_subalgebra_generated,
    canonical_hom_report,
    filters,
    hausdorff_normal_report,
    is_boolean,
    is_filter,
    self_representation_check,
    stone_space,
    ultrafilters,
    wallman_connected,
    wallman_space,
)


class TestFilters:
    def test_two_element_lattice_single_ultrafilter(self):
        L = chain(2)
        assert [sorted(u.members) for u in ultrafilters(L)] == [[1]]

    def test_boolean_four_has_two_ultrafilters(self):
        L = powerset_lattice(2)
        us = [sorted(u.members) for u in ultrafilters(L)]
        assert us == [[0b01, 0b11], [0b10, 0b11]]

    def test_three_chain_filters(self):
        L = chain(3)
        fs = [sorted(f.members) for f in filters(L)]
        assert fs == [[1, 2], [2]]
        assert [sorted(u.members) for u in ultrafilters(L)] == [[1, 2]]

    def test_filters_are_the_up_sets_of_nonzero_elements_and_ultrafilters_of_atoms(self):
        for n in range(2, 9):
            for L in lattices_of_size(n):
                up = {a: frozenset(b for b in L.elements() if L.leq(a, b)) for a in L.elements()}
                fs = [f.members for f in filters(L)]
                assert len(fs) == L.n - 1 and set(fs) == {up[a] for a in L.elements() if a != L.bottom}
                assert fs == sorted(fs, key=sorted)
                us = [u.members for u in ultrafilters(L)]
                assert us == sorted((up[a] for a in atoms(L)), key=sorted), L.meet

    def test_enumerated_filters_pass_the_definition(self):
        for L in (chain(4), powerset_lattice(3), diamond_m3()):
            for f in filters(L):
                assert is_filter(L, f.members)

    def test_a_member_that_is_not_an_element_is_refused(self):
        L = chain(3)
        for bad in (-1, L.n, True):
            with pytest.raises(PreconditionViolated):
                is_filter(L, {2, bad})
        assert is_filter(L, {1, 2}) and not is_filter(L, {1}) and not is_filter(L, set())

    def test_filters_are_complete(self):
        # brute force over all subsets agrees with the principal enumeration
        from itertools import combinations

        L = powerset_lattice(2)
        expected = set()
        for r in range(1, L.n + 1):
            for sub in combinations(L.elements(), r):
                if is_filter(L, frozenset(sub)):
                    expected.add(frozenset(sub))
        assert expected == {f.members for f in filters(L)}


class TestWallmanSpace:
    def test_powerset_gives_discrete_points(self):
        W = wallman_space(powerset_lattice(3))
        assert len(W.points) == 3
        X = W.space()
        assert is_discrete(X)

    def test_three_chain_gives_one_point(self):
        W = wallman_space(chain(3))
        assert len(W.points) == 1

    def test_rejects_m3(self):
        with pytest.raises(NotDistributive):
            wallman_space(diamond_m3())

    def test_base_is_homomorphic_image(self):
        for L in enumerate_distributive(6):
            W = wallman_space(L)
            for a in L.elements():
                for b in L.elements():
                    assert W.base[L.meet[a][b]] == W.base[a] & W.base[b]
                    assert W.base[L.join[a][b]] == W.base[a] | W.base[b]


class TestDualityReports:
    def test_three_chain_hom_not_injective(self):
        report = canonical_hom_report(chain(3))
        assert report == {"is_injective": False, "is_disjunctive": False, "agree": True}

    def test_powerset_hom_injective(self):
        report = canonical_hom_report(powerset_lattice(2))
        assert report == {"is_injective": True, "is_disjunctive": True, "agree": True}

    def test_hausdorff_normal_examples(self):
        assert hausdorff_normal_report(powerset_lattice(2)) == {
            "wL_hausdorff": True,
            "L_normal": True,
        }
        assert hausdorff_normal_report(chain(3)) == {
            "wL_hausdorff": True,
            "L_normal": True,
        }

    def test_normal_sweep_no_hausdorff_gap(self):
        # disjunctive instances: never normal with a non-Hausdorff space
        for L in enumerate_distributive(6):
            if not is_disjunctive(L)[0]:
                continue
            report = hausdorff_normal_report(L)
            assert not (report["L_normal"] and not report["wL_hausdorff"])

    def test_connectedness_sweep(self):
        for L in enumerate_distributive(6):
            if not is_disjunctive(L)[0]:
                continue
            assert conn(L, L.top)[0] == wallman_connected(L)


class TestSelfRepresentation:
    def test_discrete_spaces_represent_themselves(self):
        for n in range(1, 6):
            ok, diag = self_representation_check(discrete_space(n))
            assert ok, diag

    def test_sierpinski_reported_not_asserted(self):
        X = space_from_sets(2, [[], [1], [0, 1]])
        ok, diag = self_representation_check(X)
        assert not ok and diag is not None


class TestStone:
    def test_powerset_point_counts(self):
        for k in (1, 2, 3, 4):
            B = powerset_lattice(k)
            W = stone_space(B)
            assert len(W.points) == k == len(atoms(B))

    def test_rejects_three_chain(self):
        assert not is_boolean(chain(3))
        with pytest.raises(NotBoolean):
            stone_space(chain(3))

    def test_two_element_algebra_one_point(self):
        assert len(stone_space(chain(2)).points) == 1


class TestBooleanSubalgebra:
    def test_empty_generators(self):
        alg, members = boolean_subalgebra_generated(3, [])
        assert members == [0, 0b111] and alg.n == 2

    def test_single_generator_in_two_points(self):
        alg, members = boolean_subalgebra_generated(2, [0b01])
        assert sorted(members) == [0, 1, 2, 3]

    def test_generator_and_complement(self):
        alg, members = boolean_subalgebra_generated(3, [0b011])
        assert sorted(members) == [0, 0b011, 0b100, 0b111]


def brute_force_boolean_closure(universe_size, family):
    """Close {0, full} and the family under union, intersection and complement."""
    full = (1 << universe_size) - 1
    fam = {0, full} | {m & full for m in family}
    while True:
        new = {full & ~a for a in fam}
        new |= {a | b for a in fam for b in fam} | {a & b for a in fam for b in fam}
        if new <= fam:
            return fam
        fam |= new


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.lists(st.integers(min_value=0, max_value=63), max_size=4))
def test_boolean_subalgebra_is_the_brute_force_closure(universe_size, family):
    alg, members = boolean_subalgebra_generated(universe_size, family)
    expected = brute_force_boolean_closure(universe_size, family)
    assert members == sorted(expected, key=lambda m: (bin(m).count("1"), m))
    assert alg.names == tuple("{" + ",".join(map(str, points_of(m))) + "}" for m in members)
    for i, a in enumerate(members):
        for j, b in enumerate(members):
            assert members[alg.meet[i][j]] == a & b and members[alg.join[i][j]] == a | b


class TestAlexandroffPreimage:
    def test_discrete_three_points_bijection(self):
        X = discrete_space(3)
        Y, f = alexandroff_preimage(X, [0b001, 0b010, 0b100])
        assert Y.point_count == 3 and sorted(f) == [0, 1, 2]

    def test_one_point(self):
        X = discrete_space(1)
        Y, f = alexandroff_preimage(X, [0b1])
        assert Y.point_count == 1 and f == [0]

    def test_generated_algebra_can_exceed_base(self):
        X = discrete_space(4)
        Y, f = alexandroff_preimage(X, [0b0011, 0b0001, 0b0100])
        assert Y.point_count == 4 and sorted(f) == [0, 1, 2, 3]

    def test_non_T1_input_reports_fiber(self):
        X = generate_space(3, [0b011, 0b110])
        with pytest.raises(NonSingletonFiber):
            alexandroff_preimage(X, [0b011, 0b110])


DUALITY_SWEEP = Path(__file__).resolve().parents[1] / "scripts" / "duality_sweep.py"


def load_duality_sweep():
    spec = importlib.util.spec_from_file_location("duality_sweep", DUALITY_SWEEP)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    return sweep


def test_the_duality_sweep_exits_1_when_a_self_check_fails(monkeypatch, capsys):
    sweep = load_duality_sweep()
    monkeypatch.setattr(sweep, "canonical_hom_report", lambda L: {"is_injective": L.n == 2, "agree": L.n != 3})
    monkeypatch.setattr(sys, "argv", ["duality_sweep.py", "--max-size", "4"])
    assert sweep.main() == 1
    out = capsys.readouterr().out
    assert out.count("check failed") == 1
    assert "check failed: canonical map injective iff disjunctive, on lattice 1" in out


def test_the_duality_sweep_exits_0_when_every_self_check_holds(monkeypatch, capsys):
    sweep = load_duality_sweep()
    monkeypatch.setattr(sys, "argv", ["duality_sweep.py", "--max-size", "4"])
    assert sweep.main() == 0
    out = capsys.readouterr().out
    assert out.startswith("distributive lattices up to size 4: 4\n")
    assert "check failed" not in out
