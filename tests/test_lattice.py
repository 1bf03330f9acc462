import dataclasses
import hashlib
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wallman_lab import enumeration
from wallman_lab.enumeration import (
    iter_lattices,
    lattices_of_size,
    posets_up_to_iso,
)
from wallman_lab.errors import (
    LatticeLawViolation,
    MalformedTables,
    NotDistributive,
    NotPliand,
    PreconditionViolated,
)
from wallman_lab.lattice import (
    Chicane,
    FiniteLattice,
    PliandFoursome,
    Poset,
    _law_violations,
    _mask_lattice,
    birkhoff_poset,
    chain,
    chicane_identities_hold,
    conn,
    diamond_m3,
    downset_lattice,
    enumerate_distributive,
    find_chicane,
    is_disjunctive,
    is_distributive,
    is_normal,
    join_irreducibles,
    lattice_isomorphism,
    powerset_lattice,
    satisfies_HI,
    satisfies_dim_le1,
    table_violations,
    validate,
)

from oracles import all_labeled_lattices


A006966 = {2: 1, 3: 1, 4: 2, 5: 5, 6: 15, 7: 53, 8: 222, 9: 1078, 10: 5994}
PINNED_DIGESTS = [
    (8, "4b41eedf86ed8ff0c2327264a4ddd97595d11c3e2326e27f5d138ac2b246b8ed"),
    (9, "913d8e6ac3428d189642e8dfa4e5cfcc4830b1984ba907e34fd9fab3943d1dd0"),
    (10, "e8940d081c342d7a4e0ffd6b0ff11056f66c8ec2a6ce75fb640c83f64787e25e"),
]


def mask_meet_name(k):
    return tuple(f"s{m}" for m in range(1 << k))


def enumeration_digest(lattices):
    tables = [(L.names, L.meet, L.join, L.bottom, L.top) for L in lattices]
    return hashlib.sha256(repr(tables).encode()).hexdigest()


class TestValidate:
    def test_two_element_lattice_is_smallest(self):
        L = chain(2)
        assert L.n == 2 and L.bottom == 0 and L.top == 1

    def test_rejects_one_element(self):
        with pytest.raises(MalformedTables):
            validate(("x",), ((0,),), ((0,),), 0, 0)

    def test_rejects_ragged_tables(self):
        with pytest.raises(MalformedTables):
            validate(("a", "b"), ((0,), (0, 1)), ((0, 1), (1, 1)), 0, 1)

    def test_reports_broken_absorption(self):
        # meet says a^b=a but join says avb=a too while order disagrees
        meet = ((0, 0, 0), (0, 1, 1), (0, 1, 2))
        join = ((0, 1, 2), (1, 1, 1), (2, 1, 2))  # 1 v 2 should be 2
        with pytest.raises(LatticeLawViolation) as exc:
            validate(("0", "m", "1"), meet, join, 0, 2)
        assert exc.value.violations

    def test_table_violations_empty_for_valid(self):
        L = powerset_lattice(2)
        assert table_violations(L.names, L.meet, L.join, L.bottom, L.top) == []

    @pytest.mark.parametrize(
        "table, row, col, value, message",
        [
            ("meet", 1, 0, 4, "meet entry 4 out of range"),
            ("join", 2, 3, -1, "join entry -1 out of range"),
            ("meet", 3, 2, True, "meet entry True out of range"),
            ("join", 0, 1, "1", "join entry '1' out of range"),
            ("meet", 2, 2, 2.0, "meet entry 2.0 out of range"),
        ],
    )
    def test_first_bad_table_entry_is_named(self, table, row, col, value, message):
        L = powerset_lattice(2)
        tables = {"meet": [list(r) for r in L.meet], "join": [list(r) for r in L.join]}
        tables[table][row][col] = value
        tables[table][3][3] = 7  # a later bad entry is not the one reported
        with pytest.raises(MalformedTables) as exc:
            table_violations(L.names, tables["meet"], tables["join"], L.bottom, L.top)
        assert str(exc.value) == message

    @pytest.mark.parametrize("table", ["meet", "join"])
    def test_an_entry_equal_to_the_size_is_out_of_range(self, table):
        L = powerset_lattice(2)
        tables = {"meet": [list(r) for r in L.meet], "join": [list(r) for r in L.join]}
        tables[table][1][2] = 4  # the only bad entry
        with pytest.raises(MalformedTables, match=f"^{table} entry 4 out of range$"):
            table_violations(L.names, tables["meet"], tables["join"], L.bottom, L.top)

    def test_int_subclass_entries_are_indices(self):
        class Index(int):
            pass

        L = powerset_lattice(2)
        meet = [[Index(v) for v in r] for r in L.meet]
        assert table_violations(L.names, meet, L.join, L.bottom, L.top) == []


class TestHash:
    """The hash walks both tables once per lattice and is then kept outside
    the fields; it is left out of pickles, as string hashes are per process."""

    def test_equal_lattices_hash_alike(self):
        L, M = powerset_lattice(3), powerset_lattice(3)
        assert L == M and L is not M
        assert hash(L) == hash(M) == hash((L.names, L.meet, L.join, L.bottom, L.top))
        assert hash(L) == hash(L)  # the kept value

    def test_the_fields_are_unchanged(self):
        assert [f.name for f in dataclasses.fields(FiniteLattice)] == ["names", "meet", "join", "bottom", "top"]
        L = chain(3)
        hash(L)
        assert repr(L) == "FiniteLattice(n=3, names=('c0', 'c1', 'c2'))"

    def test_a_pickle_round_trip_equals_the_original(self):
        L = powerset_lattice(2)
        hash(L)
        state = pickle.dumps(L)
        back = pickle.loads(state)
        assert b"_hash" not in state
        assert back == L and "_hash" not in back.__dict__
        assert hash(back) == hash(L)


class TestStandardExamples:
    def test_chain_order(self):
        L = chain(4)
        assert L.leq(0, 3) and L.leq(1, 2) and not L.leq(2, 1)

    def test_powerset_index_is_bitmask(self):
        L = powerset_lattice(3)
        assert L.meet[0b101][0b110] == 0b100
        assert L.join[0b101][0b010] == 0b111

    def test_m3_is_not_distributive(self):
        ok, witness = is_distributive(diamond_m3())
        assert not ok and witness is not None
        x, y, z = witness
        L = diamond_m3()
        assert L.meet[x][L.join[y][z]] != L.join[L.meet[x][y]][L.meet[x][z]]

    def test_powerset_is_distributive(self):
        assert is_distributive(powerset_lattice(3)) == (True, None)


class TestDisjunctive:
    def test_powerset_disjunctive(self):
        assert is_disjunctive(powerset_lattice(2))[0]

    def test_three_chain_not_disjunctive(self):
        ok, witness = is_disjunctive(chain(3))
        assert not ok
        a, b = witness
        L = chain(3)
        # no nonzero c <= a misses b
        assert not L.leq(a, b)
        for c in L.elements():
            if c != L.bottom and L.leq(c, a):
                assert L.meet[c][b] != L.bottom

    def test_witness_requires_nonzero_c(self):
        # the separating element must be nonzero, otherwise everything passes
        ok, _ = is_disjunctive(chain(2))
        assert ok


class TestNormality:
    def test_powerset_normal_with_witness_map(self):
        L = powerset_lattice(3)
        ok, witnesses = is_normal(L)
        assert ok
        for (x, y), (u, v) in witnesses.items():
            assert L.meet[x][y] == L.bottom
            assert L.meet[x][u] == L.bottom
            assert L.meet[y][v] == L.bottom
            assert L.join[u][v] == L.top

    def test_minimal_non_normal_has_five_elements(self):
        # order: 0 < a,b < a v b < 1 with the top strictly above the join
        names = ("0", "a", "b", "ab", "1")
        meet = (
            (0, 0, 0, 0, 0),
            (0, 1, 0, 1, 1),
            (0, 0, 2, 2, 2),
            (0, 1, 2, 3, 3),
            (0, 1, 2, 3, 4),
        )
        join = (
            (0, 1, 2, 3, 4),
            (1, 1, 3, 3, 4),
            (2, 3, 2, 3, 4),
            (3, 3, 3, 3, 4),
            (4, 4, 4, 4, 4),
        )
        L = validate(names, meet, join, 0, 4)
        ok, offending = is_normal(L)
        assert not ok and offending == (1, 2)
        for n in (2, 3, 4):
            for M in lattices_of_size(n):
                assert is_normal(M)[0]

    def test_every_chain_is_normal(self):
        for k in range(2, 6):
            assert is_normal(chain(k))[0]


class TestConn:
    def test_two_element_connected(self):
        assert conn(chain(2), 1)[0]

    def test_powerset_top_disconnected(self):
        L = powerset_lattice(2)
        ok, witness = conn(L, L.top)
        assert not ok
        x, y = witness
        assert L.meet[x][y] == L.bottom and L.join[x][y] == L.top

    def test_conn_of_atom_in_powerset(self):
        L = powerset_lattice(2)
        assert conn(L, 0b01)[0]

    def test_a_value_that_is_not_an_element_is_refused(self):
        L = chain(3)
        for bad in (-1, L.n, True):
            with pytest.raises(PreconditionViolated):
                conn(L, bad)
        assert conn(L, 2) == (True, None) and conn(L, 0) == (True, None)


class TestChicane:
    def test_rejects_non_pliand(self):
        L = powerset_lattice(2)
        with pytest.raises(NotPliand):
            find_chicane(L, PliandFoursome(1, 1, 0, 0))

    def test_powerset_chicane_exists(self):
        L = powerset_lattice(3)
        fs = PliandFoursome(0b001, 0b010, 0b110, 0b101)
        ch = find_chicane(L, fs)
        assert ch is not None
        assert chicane_identities_hold(L, fs, ch)

    def test_canonical_witness_triple(self):
        # X0 = C, X1 = S minus (C union D), X2 = D always works in a power set
        L = powerset_lattice(4)
        full = L.top
        for c in range(1, 16):
            for d in range(1, 16):
                if c & d:
                    continue
                fs = PliandFoursome(c, d, full & ~c, full & ~d)
                ch = Chicane(c, full & ~(c | d), d)
                assert chicane_identities_hold(L, fs, ch)

    def test_satisfies_HI_powerset(self):
        assert satisfies_HI(powerset_lattice(2))[0]
        assert satisfies_HI(powerset_lattice(3))[0]

    def test_dim_le1_powerset(self):
        ok, witnesses = satisfies_dim_le1(powerset_lattice(2))
        assert ok
        L = powerset_lattice(2)
        for (x0, y0, x1, y1), (u0, v0, u1, v1) in witnesses.items():
            assert L.join[u0][v0] == L.top and L.join[u1][v1] == L.top
            assert L.meet[L.meet[u0][v0]][L.meet[u1][v1]] == L.bottom


class TestBirkhoff:
    def test_downset_of_antichain_is_powerset(self):
        P = Poset(3, tuple(tuple(i == j for j in range(3)) for i in range(3)))
        L = downset_lattice(P)
        assert lattice_isomorphism(L, powerset_lattice(3)) is not None

    def test_join_irreducibles_of_powerset_are_atoms(self):
        L = powerset_lattice(3)
        assert sorted(join_irreducibles(L)) == [0b001, 0b010, 0b100]

    def test_round_trip_through_poset(self):
        for L in enumerate_distributive(5):
            P = birkhoff_poset(L)
            M = downset_lattice(P)
            assert lattice_isomorphism(L, M) is not None

    def test_birkhoff_rejects_m3(self):
        with pytest.raises(NotDistributive):
            birkhoff_poset(diamond_m3())

    @staticmethod
    def reference_poset_error(le):
        """The first failure of the pointwise reflexive/antisymmetric/transitive scan."""
        n = len(le)
        for a in range(n):
            if not le[a][a]:
                return f"le not reflexive at {a}"
        for a in range(n):
            for b in range(n):
                if a != b and le[a][b] and le[b][a]:
                    return f"le not antisymmetric at ({a},{b})"
                if le[a][b]:
                    for c in range(n):
                        if le[b][c] and not le[a][c]:
                            return f"le not transitive at ({a},{b},{c})"
        return None

    @staticmethod
    def reference_downsets(P):
        """Every down-closed mask, by a scan of all 2^n masks."""
        n = P.size
        return [
            m
            for m in range(1 << n)
            if all(not m >> a & 1 or all(m >> b & 1 for b in range(n) if P.le[b][a]) for a in range(n))
        ]

    def test_poset_validate_names_the_first_failure_of_the_pointwise_scan(self):
        relations = [
            tuple(tuple(bits >> (3 * a + b) & 1 == 1 for b in range(3)) for a in range(3)) for bits in range(1 << 9)
        ]
        for le in relations:
            try:
                Poset(3, le).validate()
                got = None
            except MalformedTables as err:
                got = str(err)
            assert got == self.reference_poset_error(le)

    def test_downset_lattice_matches_the_scan_of_all_masks(self):
        for m in range(1, 6):
            for P in posets_up_to_iso(m):
                down = self.reference_downsets(P)
                assert downset_lattice(P) == _mask_lattice(down, "p")[0]
                assert downset_lattice(P, max_elements=len(down)) == downset_lattice(P)
                with pytest.raises(PreconditionViolated):
                    downset_lattice(P, max_elements=len(down) - 1)


class TestIsomorphism:
    def test_permuted_tables_are_isomorphic(self):
        L = powerset_lattice(2)
        perm = [0, 2, 1, 3]
        inv = [perm.index(i) for i in range(4)]
        names = tuple(L.names[perm[i]] for i in range(4))
        meet = tuple(
            tuple(inv[L.meet[perm[i]][perm[j]]] for j in range(4)) for i in range(4)
        )
        join = tuple(
            tuple(inv[L.join[perm[i]][perm[j]]] for j in range(4)) for i in range(4)
        )
        M = validate(names, meet, join, inv[L.bottom], inv[L.top])
        assert lattice_isomorphism(L, M) is not None

    def test_chain_vs_powerset_not_isomorphic(self):
        assert lattice_isomorphism(chain(4), powerset_lattice(2)) is None

    @staticmethod
    def relabelled(L, perm):
        """L with element perm[i] renamed i."""
        inv = [perm.index(i) for i in range(L.n)]
        meet = [[inv[L.meet[perm[i]][perm[j]]] for j in range(L.n)] for i in range(L.n)]
        join = [[inv[L.join[perm[i]][perm[j]]] for j in range(L.n)] for i in range(L.n)]
        return validate([L.names[p] for p in perm], meet, join, inv[L.bottom], inv[L.top])

    def test_isomorphisms_keep_the_operations_on_all_small_pairs(self):
        # one lattice per class of size <= 6 and a relabelled copy of each:
        # two of them are isomorphic exactly when they come from one class
        shuffle = random.Random(7).shuffle
        lattices = []
        for cls, L in enumerate(L for n in range(2, 7) for L in lattices_of_size(n)):
            perm = list(range(L.n))
            shuffle(perm)
            lattices += [(cls, L), (cls, self.relabelled(L, perm))]
        for cls_a, A in lattices:
            for cls_b, B in lattices:
                f = lattice_isomorphism(A, B)
                assert (f is not None) == (cls_a == cls_b), (A, B)
                if f is None:
                    continue
                assert sorted(f) == sorted(f.values()) == list(range(A.n))
                assert (f[A.bottom], f[A.top]) == (B.bottom, B.top)
                for a, b in itertools.product(A.elements(), repeat=2):
                    assert f[A.meet[a][b]] == B.meet[f[a]][f[b]]
                    assert f[A.join[a][b]] == B.join[f[a]][f[b]]


class TestEnumeration:
    def test_poset_counts(self):
        for m, count in enumerate([1, 1, 2, 5, 16, 63], start=0):
            assert len(posets_up_to_iso(m)) == count

    def test_lattice_counts(self):
        for n, count in A006966.items():
            assert len(lattices_of_size(n)) == count

    @pytest.mark.parametrize("n, digest", PINNED_DIGESTS)
    def test_enumeration_is_pinned(self, n, digest):
        # the same representative per class, labels and order as when the digests were taken;
        # searches return the first model in this order, so a change here moves their answers
        assert enumeration_digest(lattices_of_size(n)) == digest

    def test_enumeration_matches_naive_oracle(self):
        for n in range(2, 5):
            naive = all_labeled_lattices(n)
            classes = lattices_of_size(n)
            # every naive lattice is isomorphic to exactly one class member
            for L in naive:
                hits = [M for M in classes if lattice_isomorphism(L, M) is not None]
                assert len(hits) == 1
            # and the classes are pairwise non-isomorphic
            for i, A in enumerate(classes):
                for B in classes[i + 1 :]:
                    assert lattice_isomorphism(A, B) is None

    def test_enumerated_lattices_validate(self):
        for n in range(2, 7):
            for L in lattices_of_size(n):
                assert table_violations(L.names, L.meet, L.join, L.bottom, L.top) == []

    def test_distributive_enumeration_sound_and_sorted(self):
        sizes = []
        for L in enumerate_distributive(6):
            assert is_distributive(L)[0]
            sizes.append(L.n)
        assert sizes == sorted(sizes)
        # distributive lattices are exactly the down-set lattices of posets
        by_size = {n: sum(1 for s in sizes if s == n) for n in range(2, 7)}
        expected = {}
        for m in range(1, 6):
            for P in posets_up_to_iso(m):
                n = downset_lattice(P).n
                if 2 <= n <= 6:
                    expected[n] = expected.get(n, 0) + 1
        assert by_size == {n: expected.get(n, 0) for n in range(2, 7)}


class TestStreamedLevels:
    """A level is built as far as it is read, and reads the same however it is read."""

    def test_a_partly_read_level_is_a_prefix_of_the_whole(self, cold_levels):
        for n in range(2, 10):
            k = (A006966[n] + 1) // 2
            head = list(itertools.islice(iter_lattices(n), k))
            assert len(enumeration._LEVELS[n].lattices) == k
            whole = lattices_of_size(n)
            assert len(whole) == A006966[n] and lattices_of_size(n) is whole
            assert all(a is b for a, b in zip(head, whole[:k]))

    def test_dedupe_reads_candidates_only_as_far_as_the_level_is_read(self, cold_levels, monkeypatch):
        lattices_of_size(8)
        profiled = []
        real = enumeration._profile
        monkeypatch.setattr(enumeration, "_profile", lambda down, up: profiled.append(down) or real(down, up))
        next(iter_lattices(9))
        first = len(profiled)
        lattices_of_size(9)
        assert 0 < first < len(profiled) / 100

    def test_interleaved_readers_see_one_sequence(self, cold_levels):
        first, second = iter_lattices(8), iter_lattices(8)
        seen = [[], []]
        for step in range(150):
            seen[step % 2].append(next(first if step % 2 == 0 else second))
            if step % 3 == 0:
                seen[1].append(next(second))
        seen[0] += first
        seen[1] += second
        whole = lattices_of_size(8)
        assert len(seen[0]) == len(seen[1]) == len(whole) == 222
        assert all(a is b is c for a, b, c in zip(*seen, whole))

    def test_a_model_search_builds_the_last_size_only_as_far_as_it_reads(self, cold_levels):
        from wallman_lab.modelfinder import SearchBudget, find_model, kappa_constants_theory

        result = find_model(kappa_constants_theory(2), SearchBudget(max_size=10, node_limit=10**9, time_limit=290))
        assert (result.lattice.n, result.interpretation) == (10, {"a1": 5, "a2": 6, "b1": 8, "b2": 7})
        assert result.lattice is enumeration._LEVELS[10].lattices[926]
        assert len(enumeration._LEVELS[10].lattices) < A006966[10]
        assert enumeration_digest(lattices_of_size(10)) == PINNED_DIGESTS[2][1]

    def test_a_model_search_reads_the_sizes_below_the_streamed_ones_whole(self, monkeypatch):
        from wallman_lab import modelfinder
        from wallman_lab.fol import Theory, parse

        whole = []
        monkeypatch.setattr(modelfinder, "lattices_of_size", lambda n: whole.append(n) or lattices_of_size(n))
        monkeypatch.setattr(modelfinder, "STREAM_FROM_SIZE", 4)
        three_middles = (
            "E x. E y. E z. (!(x = y) & !(y = z) & !(x = z)"
            " & !(x = 0) & !(x = 1) & !(y = 0) & !(y = 1) & !(z = 0) & !(z = 1))"
        )
        result = modelfinder.find_model(Theory((), (parse(three_middles),)), modelfinder.SearchBudget(max_size=5))
        assert result.lattice.n == 5 and whole == [2, 3]

    def test_the_lattices_of_one_size_share_their_rows_and_names(self, cold_levels):
        for n in range(2, 9):
            level = enumeration._level(n).drain()
            first = {}  # each distinct row, as the first lattice that has it holds it
            for L in level.lattices:
                assert L.names is level.names == tuple(f"e{i}" for i in range(n))
                for row in L.meet + L.join:
                    assert first.setdefault(row, row) is row
                    assert level.rows[row] is row
            assert len(first) == len(level.rows)

    def test_a_level_starts_with_an_empty_row_table(self, cold_levels):
        level = enumeration._level(7)
        assert level.rows == {} and level.lattices == []
        first = next(iter_lattices(7))
        assert all(level.rows[row] is row for row in first.meet + first.join)
        assert enumeration._level(6).rows  # built whole, as the parents of size 7

    def test_derived_up_masks_match_a_walk_of_the_down_masks(self, cold_levels):
        candidates = []
        for n in range(2, 9):
            parents = enumeration._level(n - 1).drain().downs if n > 2 else [()]
            candidates += enumeration._semilattice_candidates(parents)
        for m in range(1, 8):
            for parent in enumeration._posets_raw(m - 1):
                candidates += enumeration._children(parent, enumeration._downsets(parent))
        assert len(candidates) > 5_000
        for down, up in candidates:
            assert list(up) == enumeration._up_masks(down), down

    @staticmethod
    def fail_on_third(monkeypatch, size):
        """Make validate raise on the third lattice of the given size it builds."""
        real = enumeration.validate
        built = []

        def flaky(names, *tables):
            built.append(len(names))
            if built.count(size) == 3:
                raise RuntimeError("validate failed")
            return real(names, *tables)

        monkeypatch.setattr(enumeration, "validate", flaky)

    def test_a_level_that_raised_is_built_again_in_full(self, cold_levels, monkeypatch):
        want = [enumeration_digest(lattices_of_size(n)) for n in (6, 7)]
        monkeypatch.setattr(enumeration, "_LEVELS", {5: enumeration._LEVELS[5]})
        real = enumeration.validate
        self.fail_on_third(monkeypatch, 6)
        with pytest.raises(RuntimeError, match="validate failed"):
            lattices_of_size(7)  # reads the complete level 6 first
        assert sorted(enumeration._LEVELS) == [5]
        monkeypatch.setattr(enumeration, "validate", real)
        assert [enumeration_digest(lattices_of_size(n)) for n in (6, 7)] == want

    def test_a_level_built_again_gets_a_fresh_row_table(self, cold_levels, monkeypatch):
        lattices_of_size(5)
        failed = enumeration._level(6)
        real = enumeration.validate
        self.fail_on_third(monkeypatch, 6)
        with pytest.raises(RuntimeError, match="validate failed"):
            lattices_of_size(6)
        assert failed.rows and 6 not in enumeration._LEVELS
        monkeypatch.setattr(enumeration, "validate", real)
        rebuilt = enumeration._level(6)
        assert rebuilt.rows == {} and rebuilt.rows is not failed.rows
        rows = [row for L in lattices_of_size(6) for row in L.meet + L.join]
        assert all(rebuilt.rows[row] is row and failed.rows.get(row) is not row for row in rows)

    def test_a_reader_of_an_abandoned_level_raises_again(self, cold_levels, monkeypatch):
        reader = iter_lattices(7)
        assert next(reader) is enumeration._LEVELS[7].lattices[0]
        real = enumeration.validate
        self.fail_on_third(monkeypatch, 7)
        with pytest.raises(RuntimeError, match="validate failed"):
            lattices_of_size(7)
        assert 7 not in enumeration._LEVELS
        with pytest.raises(RuntimeError, match="building the lattices of size 7 failed"):
            list(reader)
        monkeypatch.setattr(enumeration, "validate", real)
        assert len(lattices_of_size(7)) == 53


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.data())
def test_meet_join_laws_on_enumerated_lattices(n, data):
    lattices = lattices_of_size(n)
    L = data.draw(st.sampled_from(lattices))
    a = data.draw(st.integers(min_value=0, max_value=L.n - 1))
    b = data.draw(st.integers(min_value=0, max_value=L.n - 1))
    c = data.draw(st.integers(min_value=0, max_value=L.n - 1))
    assert L.meet[a][b] == L.meet[b][a]
    assert L.join[a][b] == L.join[b][a]
    assert L.meet[a][L.meet[b][c]] == L.meet[L.meet[a][b]][c]
    assert L.join[a][L.join[b][c]] == L.join[L.join[a][b]][c]
    assert L.meet[a][L.join[a][b]] == a
    assert L.join[a][L.meet[a][b]] == a


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=2, max_value=7), st.data())
def test_fast_decision_agrees_with_the_full_listing(n, data):
    L = data.draw(st.sampled_from(lattices_of_size(n)))
    meet = [list(r) for r in L.meet]
    join = [list(r) for r in L.join]
    element = st.integers(min_value=0, max_value=n - 1)
    for _ in range(data.draw(st.integers(min_value=0, max_value=3))):
        table = data.draw(st.sampled_from([meet, join]))
        table[data.draw(element)][data.draw(element)] = data.draw(element)
    bottom = data.draw(st.one_of(st.just(L.bottom), element))
    top = data.draw(st.one_of(st.just(L.top), element))
    if top == bottom:  # distinct bounds are a structural check, outside the listing
        top = (bottom + 1) % n
    assert table_violations(L.names, meet, join, bottom, top) == _law_violations(meet, join, bottom, top)
