import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import oracles
from wallman_lab import homsearch
from wallman_lab.errors import NonSingletonFiber, NotABase, PreconditionViolated
from wallman_lab.homsearch import (
    LMorphism,
    find_L_morphism,
    find_lattice_embedding,
    preimage_morphism,
    surjection_from_embedding,
    surjection_from_morphism,
)
from wallman_lab.enumeration import lattices_of_size
from wallman_lab.lattice import _first_assignment, chain, diamond_m3, is_distributive, powerset_lattice
from wallman_lab.spaces import (
    all_spaces,
    closed_set_lattice,
    discrete_space,
    generate_space,
    is_continuous,
    is_surjective,
    space_from_sets,
)
from wallman_lab.wallman import alexandroff_preimage, self_representation_check, wallman_space

from oracles import (
    frozen_alexandroff_preimage,
    frozen_self_representation_check,
    frozen_surjection_from_embedding,
    frozen_surjection_from_morphism,
    frozen_wallman_base,
    oracle_surjection_equivalence,
    plain_first_assignment,
    plain_L_morphism,
    plain_lattice_embedding,
)


class TestEmbedding:
    def test_two_element_into_anything(self):
        L = powerset_lattice(3)
        emb = find_lattice_embedding(chain(2), L)
        assert emb == {0: L.bottom, 1: L.top}

    def test_three_chain_into_boolean_four(self):
        L = powerset_lattice(2)
        emb = find_lattice_embedding(chain(3), L)
        assert emb is not None
        # re-validate: injective, bound-preserving, table-preserving
        assert len(set(emb.values())) == 3
        assert emb[0] == L.bottom and emb[2] == L.top
        B = chain(3)
        for a in B.elements():
            for b in B.elements():
                assert emb[B.meet[a][b]] == L.meet[emb[a]][emb[b]]
                assert emb[B.join[a][b]] == L.join[emb[a]][emb[b]]

    def test_boolean_four_into_three_chain_absent(self):
        assert find_lattice_embedding(powerset_lattice(2), chain(3)) is None

    def test_a_source_no_target_element_can_hold_is_refused_before_the_search(self, monkeypatch):
        monkeypatch.setattr(homsearch, "_first_assignment", lambda *args: pytest.fail("the search ran"))
        # more elements than the target
        assert find_lattice_embedding(powerset_lattice(3), chain(7)) is None
        # 2 in the chain 0 < 1 < 2 < 3 has three elements below it, and of the
        # elements of 2^2 only the top has as many, though it has one above it
        assert find_lattice_embedding(chain(4), powerset_lattice(2)) is None

    def test_deterministic_first_solution(self):
        a = find_lattice_embedding(chain(3), powerset_lattice(2))
        b = find_lattice_embedding(chain(3), powerset_lattice(2))
        assert a == b


def reference_lattice_embedding(B, L):
    """find_lattice_embedding as it was before the shared backtracking core:
    every node copies the assignment and re-checks all of its pairs."""
    order = [B.bottom, B.top] + [
        e for e in B.elements() if e not in (B.bottom, B.top)
    ]
    assignment = {}
    used = set()

    def candidates(e):
        if e == B.bottom:
            return [L.bottom]
        if e == B.top:
            return [L.top]
        return list(L.elements())

    def consistent(e, t):
        trial = dict(assignment)
        trial[e] = t
        for e1, t1 in trial.items():
            for e2, t2 in trial.items():
                m, j = B.meet[e1][e2], B.join[e1][e2]
                if m in trial and L.meet[t1][t2] != trial[m]:
                    return False
                if j in trial and L.join[t1][t2] != trial[j]:
                    return False
        return True

    def extend(i):
        if i == len(order):
            return True
        e = order[i]
        for t in candidates(e):
            if t in used or not consistent(e, t):
                continue
            assignment[e] = t
            used.add(t)
            if extend(i + 1):
                return True
            used.discard(t)
            del assignment[e]
        return False

    if extend(0):
        return dict(assignment)
    return None


@pytest.mark.parametrize(
    "make_target",
    [lambda: powerset_lattice(3), lambda: powerset_lattice(4)]
    + [lambda i=i: lattices_of_size(8)[i] for i in range(0, 222, 20)],
    ids=["2^3", "2^4"] + [f"size-8-no-{i}" for i in range(0, 222, 20)],
)
def test_embedding_matches_reference_search(make_target):
    # every source of size 2..7 into 2^3, 2^4 and every 20th lattice of size 8
    target = make_target()
    for B in (B for n in range(2, 8) for B in lattices_of_size(n)):
        assert find_lattice_embedding(B, target) == reference_lattice_embedding(B, target), B


@pytest.mark.parametrize(
    "make_target",
    [lambda: powerset_lattice(3), lambda: powerset_lattice(4)]
    + [lambda i=i: lattices_of_size(8)[i] for i in range(0, 222, 10)],
    ids=["2^3", "2^4"] + [f"size-8-no-{i}" for i in range(0, 222, 10)],
)
def test_embedding_matches_plain_search(make_target):
    # every source of size 2..7 into 2^3, 2^4 and every 10th lattice of size 8
    target = make_target()
    for B in (B for n in range(2, 8) for B in lattices_of_size(n)):
        assert find_lattice_embedding(B, target) == plain_lattice_embedding(B, target), B


def test_embedding_matches_plain_search_on_random_pairs(rng):
    # sizes 2..8 on both sides, from the enumeration, 2^1..2^3 and M3
    by_size = {n: list(lattices_of_size(n)) for n in range(2, 9)}
    for L in (powerset_lattice(1), powerset_lattice(2), powerset_lattice(3), diamond_m3()):
        by_size[L.n].append(L)
    for _ in range(300):
        B, L = (rng.choice(by_size[rng.randint(2, 8)]) for _ in range(2))
        assert find_lattice_embedding(B, L) == plain_lattice_embedding(B, L), (B.meet, L.meet)


class TestSurjectionFromEmbedding:
    def test_identity_on_discrete_two_points(self):
        X = discrete_space(2)
        base = X.closed_sorted()
        L = powerset_lattice(2)  # identical to the closed-set lattice
        phi = {i: m for i, m in enumerate(base)}
        f, report = surjection_from_embedding(base, phi, wallman_space(L), X)
        assert sorted(f) == [0, 1]
        assert report == {"onto": True, "preimage_identity": True}

    def test_one_point_target(self):
        X = discrete_space(1)
        base = X.closed_sorted()
        L = powerset_lattice(2)
        phi = {0: L.bottom, 1: L.top}
        f, report = surjection_from_embedding(base, phi, wallman_space(L), X)
        assert f == [0, 0] and report["onto"]

    def test_fattened_embedding_still_onto(self):
        # push a 3-point discrete base into 2^{0..3} by padding one set
        X = discrete_space(3)
        base = X.closed_sorted()
        L = powerset_lattice(4)
        phi = {}
        for i, c in enumerate(base):
            img = c
            if c >> 2 & 1:
                img |= 0b1000
            phi[i] = img
        f, report = surjection_from_embedding(base, phi, wallman_space(L), X)
        assert report["onto"] and report["preimage_identity"]
        assert sorted(set(f)) == [0, 1, 2]

    @pytest.mark.parametrize("bad", [-1, 4, True], ids=repr)
    def test_a_value_that_is_not_an_element_is_refused(self, bad):
        # -1 would read the top's base set, 4 lies past the last element and
        # True would be read as element 1
        X = discrete_space(2)
        phi = {0: 0, 1: bad, 2: 2, 3: 3}
        message = f"^{re.escape(repr(bad))} is not an element index in 0..3$"
        with pytest.raises(PreconditionViolated, match=message):
            surjection_from_embedding(X.closed_sorted(), phi, wallman_space(powerset_lattice(2)), X)


class TestLMorphism:
    def test_identity_on_discrete_two_points(self):
        Y = discrete_space(2)
        m = find_L_morphism(Y, Y.closed_sorted(), Y)
        assert m is not None
        assert m.assignment == {b: b for b in Y.closed}

    def test_absent_when_target_too_small(self):
        assert find_L_morphism(discrete_space(3), discrete_space(3).closed_sorted(), discrete_space(2)) is None

    def test_found_and_verified_three_to_two(self):
        Y, X = discrete_space(2), discrete_space(3)
        m = find_L_morphism(Y, Y.closed_sorted(), X)
        assert m is not None
        f, report = surjection_from_morphism(Y, m, X)
        assert all(report.values())
        assert is_continuous(f, X, Y) and is_surjective(f, X, Y)

    def test_base_must_generate(self):
        Y = discrete_space(2)
        with pytest.raises(NotABase):
            find_L_morphism(Y, [0, Y.full], Y)

    def test_a_base_must_hold_the_empty_and_full_sets(self):
        Y = discrete_space(2)
        for bad in ([0b01, 0b10, 0b11], [0, 0b01, 0b10]):
            with pytest.raises(NotABase, match="^base must contain the empty and full sets$"):
                find_L_morphism(Y, bad, Y)

    def test_a_base_must_be_closed_under_union_and_intersection(self):
        Y = discrete_space(3)
        with pytest.raises(NotABase, match="^base must be closed under union and intersection$"):
            find_L_morphism(Y, [0, 0b001, 0b010, 0b111], Y)

    def test_a_refused_base_is_refused_on_every_call(self):
        Y = space_from_sets(2, [[], [1], [0, 1]])
        for bad, message in (([0, 1, 3], r"\[0\] is not closed"), ([0, 3], "does not generate")):
            for _ in range(2):
                with pytest.raises(NotABase, match=message):
                    find_L_morphism(Y, bad, Y)

    def test_a_base_is_validated_once(self, monkeypatch):
        Y, X = discrete_space(3), discrete_space(4)
        base = Y.closed_sorted()
        find_L_morphism(Y, base, X)
        checked = []
        monkeypatch.setattr(homsearch, "_is_lattice_family", lambda family: checked.append(family) or True)
        assert find_L_morphism(Y, list(reversed(base)), X) is not None
        assert find_L_morphism(Y, base, X) is not None
        assert len(checked) == 1  # the reversed list is a new key; the base in order is kept

    def test_more_atoms_than_minimal_closed_sets_is_refuted_at_once(self):
        # the search onto discrete(8) took 123 s before the count refuted it
        Y = discrete_space(9)
        started = time.perf_counter()
        assert find_L_morphism(Y, Y.closed_sorted(), discrete_space(8)) is None
        assert time.perf_counter() - started < 1

    def test_discrete_twelve_onto_six_sees_its_forced_points(self):
        # without the forced-point check this ran past 20 s: a branch that leaves
        # points outside every atom's image lives until the co-atoms, which must
        # all hold them and meet in the empty set
        Y, X = discrete_space(6), discrete_space(12)
        started = time.perf_counter()
        phi = find_L_morphism(Y, Y.closed_sorted(), X)
        assert time.perf_counter() - started < 2
        # the first morphism keeps the pattern of 8 onto 5 and 9 onto 5, where
        # the search without the check finishes: the last atom takes the rest
        assert phi == preimage_morphism([0, 1, 2, 3, 4] + [5] * 7, X, Y)

    def test_non_singleton_intersection_diagnosed(self):
        # a deliberately bad morphism on the Sierpinski-type space
        Y = space_from_sets(2, [[], [1], [0, 1]])
        X = discrete_space(2)
        phi = LMorphism((0, 0b10, 0b11), {0: 0, 0b10: 0, 0b11: 0b11})
        with pytest.raises(NonSingletonFiber):
            surjection_from_morphism(Y, phi, X)


def _min_empty_families(base):
    """Inclusion-minimal subfamilies of the base with empty intersection."""
    n = len(base)
    empties = []
    for mask in range(1, 1 << n):
        inter = ~0
        m = mask
        i = 0
        while m:
            if m & 1:
                inter &= base[i]
            m >>= 1
            i += 1
        if inter == 0:
            empties.append(mask)
    minimal = []
    empties.sort(key=lambda m: bin(m).count("1"))
    for m in empties:
        if not any(p & m == p for p in minimal):
            minimal.append(m)
    return minimal


def reference_L_morphism(Y, base, X):
    """find_L_morphism as it was before the per-point check: every
    inclusion-minimal empty subfamily of the base is listed up front and
    checked once all of its members are assigned."""
    base = sorted(set(base), key=lambda m: (bin(m).count("1"), m))
    n = len(base)
    full_y = Y.full
    cover_pairs = [
        (i, j) for i in range(n) for j in range(i, n) if base[i] | base[j] == full_y
    ]
    min_empty = _min_empty_families(base)
    targets = X.closed_sorted()
    full_x = X.full
    assignment = [None] * n

    def ok(i, t):
        if base[i] == 0:
            return t == 0
        if t == 0:
            return False
        if base[i] == full_y and t != full_x:
            return False
        for a, b in cover_pairs:
            if a != i and b != i:
                continue
            other = a + b - i
            if other == i:
                if t != full_x:
                    return False
            elif assignment[other] is not None and t | assignment[other] != full_x:
                return False
        for fam in min_empty:
            if not (fam >> i & 1):
                continue
            inter = t
            complete = True
            m = fam
            k = 0
            while m:
                if m & 1 and k != i:
                    if assignment[k] is None:
                        complete = False
                        break
                    inter &= assignment[k]
                m >>= 1
                k += 1
            if complete and inter != 0:
                return False
        return True

    def extend(i):
        if i == n:
            return True
        for t in targets:
            if ok(i, t):
                assignment[i] = t
                if extend(i + 1):
                    return True
                assignment[i] = None
        return False

    if extend(0):
        return LMorphism(tuple(base), dict(zip(base, assignment)))
    return None


def test_matches_reference_search_on_all_small_spaces():
    spaces = [X for n in (1, 2, 3) for X in all_spaces(n)]
    for Y in spaces:
        base = Y.closed_sorted()
        for X in spaces:
            assert find_L_morphism(Y, base, X) == reference_L_morphism(Y, base, X), (Y, X)


@pytest.mark.parametrize("points", [1, 2, 3, 4])
def test_L_morphism_matches_plain_search(points):
    # every space on at most 4 points onto the discrete space on `points` points
    Y = discrete_space(points)
    base = Y.closed_sorted()
    for X in (X for n in range(5) for X in all_spaces(n)):
        assert find_L_morphism(Y, base, X) == plain_L_morphism(Y, base, X), X


class _PastBudget(Exception):
    pass


def test_L_morphism_matches_plain_search_on_random_spaces(rng, monkeypatch):
    # spaces on 5..8 points from random generators, onto the discrete space on
    # 3..5 points; the plain search gets 20,000 steps an instance, as some
    # "yes" instances take it minutes, and one past them is not compared
    def capped(domains, step, state):
        steps = iter(range(20_000))

        def counted(*args):
            if next(steps, None) is None:
                raise _PastBudget
            return step(*args)

        return plain_first_assignment(domains, counted, state)

    monkeypatch.setattr(oracles, "plain_first_assignment", capped)
    compared = 0
    for _ in range(40):
        n, k = rng.randint(5, 8), rng.randint(3, 5)
        X = generate_space(n, [rng.randrange(1, 1 << n) for _ in range(rng.randint(3, 9))])
        Y = discrete_space(k)
        base = Y.closed_sorted()
        started = time.perf_counter()
        phi = find_L_morphism(Y, base, X)
        assert time.perf_counter() - started < 1, (n, X.closed, k)
        try:
            assert phi == plain_L_morphism(Y, base, X), (n, X.closed, k)
        except _PastBudget:
            continue
        compared += 1
    assert compared >= 20, compared


def test_a_set_that_misses_a_forced_meet_keeps_no_candidate_holding_its_point(monkeypatch):
    # after every step that does not prune, sure[x] is the forced meet at x:
    # a later base set that misses it cannot hold x, so none of its
    # candidates may hold x
    checked = []

    def checking(domains, step, state):
        def checked_step(i, k, values, state):
            out = step(i, k, values, state)
            if out is not None:
                doms, sure = out
                for j in range(i + 1, len(base)):
                    for x, meet in enumerate(sure):
                        assert not (doms[j] & holds[x] and base[j] & meet == 0), (Y, X, values, i, k, j, x)
                checked.append(i)
            return out

        return _first_assignment(domains, checked_step, state)

    monkeypatch.setattr(homsearch, "_first_assignment", checking)
    spaces = [X for n in range(5) for X in all_spaces(n)]
    for Y in (Y for n in range(4) for Y in all_spaces(n)):
        base = homsearch._valid_base(Y, tuple(Y.closed_sorted()))[0]
        for X in spaces:
            holds = homsearch._closed_rows(X)[3]
            find_L_morphism(Y, base, X)
    assert len(checked) > 30_000, len(checked)


def _components(X):
    """The number of components of X: its minimal nonempty clopen sets."""
    atoms = []
    for c in X.closed_sorted():
        if c and X.full & ~c in X.closed and all(a & ~c for a in atoms):
            atoms.append(c)
    return len(atoms)


def test_L_morphism_onto_discrete_k_exists_exactly_with_k_components(rng, monkeypatch):
    # X on 8..9 points is K-1, K or K+1 clopen blocks, each with random closed
    # subsets, so it has at least as many components as blocks; X maps onto
    # discrete K exactly when it has at least K components.  The plain search
    # gets 20,000 steps an instance and one past them is not compared.
    def capped(domains, step, state):
        steps = iter(range(20_000))

        def counted(*args):
            if next(steps, None) is None:
                raise _PastBudget
            return step(*args)

        return plain_first_assignment(domains, counted, state)

    monkeypatch.setattr(oracles, "plain_first_assignment", capped)
    found = compared = 0
    for _ in range(60):
        k, n = rng.randint(3, 5), rng.randint(8, 9)
        blocks = rng.randint(k - 1, k + 1)
        owner = list(range(blocks)) + [rng.randrange(blocks) for _ in range(n - blocks)]
        rng.shuffle(owner)
        generators = []
        for b in range(blocks):
            points = [x for x in range(n) if owner[x] == b]
            generators.append(sum(1 << x for x in points))
            for _ in range(rng.randint(0, 3)):
                generators.append(sum(1 << x for x in rng.sample(points, rng.randint(1, len(points)))))
        X, Y = generate_space(n, generators), discrete_space(k)
        base = Y.closed_sorted()
        phi = find_L_morphism(Y, base, X)
        assert (phi is not None) == (_components(X) >= k), (n, X.closed, k)
        found += phi is not None
        try:
            assert phi == plain_L_morphism(Y, base, X), (n, X.closed, k)
        except _PastBudget:
            continue
        compared += 1
    assert 10 <= found <= 50 and compared >= 30, (found, compared)


def test_discrete_five_onto_itself_matches_plain_search():
    D = discrete_space(5)
    assert find_L_morphism(D, D.closed_sorted(), D) == plain_L_morphism(D, D.closed_sorted(), D)


@pytest.mark.parametrize("points", [6, 7, 8])
def test_discrete_onto_itself_finds_the_identity(points):
    # without forward checking, 6 -> 6 did not finish within two minutes
    D = discrete_space(points)
    assert find_L_morphism(D, D.closed_sorted(), D).assignment == {b: b for b in D.closed}


def test_the_map_sweep_is_pinned():
    # the digests the searches gave before they were forward-checked
    script = Path(__file__).resolve().parents[1] / "scripts" / "map_sweep.py"
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[:4] == [
        "embeddings found 2654, absent 14594",
        "embeddings sha256 da6a2cb57712f9a16df2e392c1ff65d8c2e45b6c7a405e9eb62b7319b136a062",
        "morphisms found 10193, absent 3847",
        "morphisms sha256 e67c1cd1349ba96e51eac59332a01e270474c3317c3a26e93ae0e5cf65d9509a",
    ]


class TestRoundTrip:
    def test_preimage_morphism_reconstructs_map(self):
        X, Y = discrete_space(4), discrete_space(2)
        for f0 in ([0, 0, 1, 1], [0, 1, 0, 1], [1, 0, 0, 0]):
            phi = preimage_morphism(f0, X, Y)
            f, report = surjection_from_morphism(Y, phi, X)
            assert f == f0 and all(report.values())

    def test_identity_morphism_identity_map(self):
        X = discrete_space(3)
        phi = preimage_morphism([0, 1, 2], X, X)
        f, report = surjection_from_morphism(X, phi, X)
        assert f == [0, 1, 2] and all(report.values())


def _outcome(construct, *args):
    """What a construction returns, or the type and message of what it raised."""
    try:
        return construct(*args)
    except Exception as err:
        return type(err), str(err)


SMALL_SPACES = [X for n in range(1, 5) for X in all_spaces(n)]


class TestPointMapsMatchTheFrozenCopies:
    """The four constructions that map points through a base with
    `spaces._point_map` return what their frozen copies returned, and raise
    what they raised; `wallman_space` builds the base the frozen loop built."""

    def test_wallman_base(self):
        for L in (L for n in range(2, 9) for L in lattices_of_size(n) if is_distributive(L)[0]):
            assert wallman_space(L).base == frozen_wallman_base(L), L

    def test_self_representation(self):
        for X in (X for n in range(6) for X in all_spaces(n)):
            assert _outcome(self_representation_check, X) == _outcome(frozen_self_representation_check, X), X

    def test_alexandroff_preimage(self):
        rng = random.Random(1)
        cases = []
        for X in SMALL_SPACES:
            closed, n = sorted(X.closed), X.point_count
            picked = rng.sample(closed, rng.randint(1, len(closed)))
            cases.append((X, picked + [rng.randrange(1 << n) for _ in range(rng.randint(0, 2))]))
        # a preimage exists only over a discrete space, so also every family
        # of two masks on each discrete space
        cases += [(discrete_space(n), [a, b]) for n in range(1, 5) for a in range(1 << n) for b in range(a, 1 << n)]
        for X, family in cases:
            assert _outcome(alexandroff_preimage, X, family) == _outcome(frozen_alexandroff_preimage, X, family)

    def test_surjection_from_morphism(self):
        # the pairs of scripts/map_sweep.py
        bases = [Y for n in range(4) for Y in all_spaces(n)] + [discrete_space(4)]
        spaces = [X for n in range(5) for X in all_spaces(n)]
        count = 0
        for Y in bases:
            for X in spaces:
                phi = find_L_morphism(Y, Y.closed_sorted(), X)
                if phi is not None:
                    count += 1
                    assert _outcome(surjection_from_morphism, Y, phi, X) == _outcome(
                        frozen_surjection_from_morphism, Y, phi, X
                    ), (Y, X)
        assert count == 10193

    def test_surjection_from_embedding(self):
        # the identity embedding of each closed-set lattice, and its first
        # embedding into 2^3 and into 2^4 for the spaces on at most three points
        targets = (powerset_lattice(3), powerset_lattice(4))
        cases = []
        for X in SMALL_SPACES:
            B = closed_set_lattice(X)
            cases.append((X, B, {i: i for i in B.elements()}))
            if X.point_count < 4:
                cases += [(X, L, find_lattice_embedding(B, L)) for L in targets]
        for X, L, phi in cases:
            if phi is not None:
                args = (X.closed_sorted(), phi)
                assert _outcome(surjection_from_embedding, *args, wallman_space(L), X) == _outcome(
                    frozen_surjection_from_embedding, *args, L, X
                ), (X, phi)


class TestOracle:
    def test_two_by_two(self):
        r = oracle_surjection_equivalence(discrete_space(2), discrete_space(2))
        assert r == {"oracle": True, "morphism": True, "agree": True}

    def test_two_onto_three_impossible(self):
        r = oracle_surjection_equivalence(discrete_space(2), discrete_space(3))
        assert r == {"oracle": False, "morphism": False, "agree": True}

    def test_non_discrete_pair_reported(self):
        X = generate_space(3, [0b011, 0b110])
        Y = space_from_sets(2, [[], [1], [0, 1]])
        r = oracle_surjection_equivalence(X, Y)
        assert "agree" in r  # reported, not asserted, off the discrete case
