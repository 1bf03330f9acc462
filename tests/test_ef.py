import random
import subprocess
import sys
from pathlib import Path

import pytest

from oracles import reference_atomic_separator, reference_consistent, reference_ef_equivalent, reference_sentence
from wallman_lab import ef
from wallman_lab.ef import (
    SpoilerStrategy,
    ef_equivalent,
    elementarily_equivalent_finite,
    strategy_to_sentence,
)
from wallman_lab.enumeration import lattices_of_size
from wallman_lab.errors import PreconditionViolated
from wallman_lab.fol import eval_formula, print_formula
from wallman_lab.lattice import _preimages, chain, lattice_isomorphism, powerset_lattice, validate


def permuted_copy(L, perm):
    inv = [perm.index(i) for i in range(L.n)]
    names = tuple(L.names[perm[i]] for i in range(L.n))
    meet = tuple(
        tuple(inv[L.meet[perm[i]][perm[j]]] for j in range(L.n)) for i in range(L.n)
    )
    join = tuple(
        tuple(inv[L.join[perm[i]][perm[j]]] for j in range(L.n)) for i in range(L.n)
    )
    return validate(names, meet, join, inv[L.bottom], inv[L.top])


class TestGame:
    def test_isomorphic_pairs_equivalent_at_every_round_count(self):
        A = powerset_lattice(2)
        B = permuted_copy(A, [0, 2, 1, 3])
        for k in range(5):
            assert ef_equivalent(A, B, k)[0]

    def test_two_chain_vs_three_chain_one_round(self):
        ok, strategy = ef_equivalent(chain(2), chain(3), 1)
        assert not ok and strategy is not None
        assert strategy.side == "B"  # the middle element has no partner

    def test_round_zero_equivalence(self):
        assert ef_equivalent(powerset_lattice(2), powerset_lattice(3), 0)[0]

    def test_boolean_pair_threshold(self):
        A, B = powerset_lattice(2), powerset_lattice(3)
        threshold = None
        for k in range(5):
            if not ef_equivalent(A, B, k)[0]:
                threshold = k
                break
        assert threshold is not None and threshold <= 4

    def test_negative_rounds_rejected(self):
        with pytest.raises(ValueError):
            ef_equivalent(chain(2), chain(2), -1)

    @pytest.mark.parametrize("rounds", [2.5, True, "3"], ids=repr)
    def test_rounds_that_are_not_an_int_are_rejected(self, rounds):
        # 2.5 rounds never reach 0 and True would play one round
        with pytest.raises(ValueError, match="rounds must be a non-negative integer"):
            ef_equivalent(chain(3), chain(4), rounds)

    def test_many_rounds_do_not_exhaust_the_stack(self):
        assert ef_equivalent(chain(2), chain(2), 400) == (True, None)
        ok, strategy = ef_equivalent(chain(2), chain(3), 100000)
        assert not ok
        sentence = strategy_to_sentence(chain(2), chain(3), strategy)
        assert eval_formula(chain(2), sentence) and not eval_formula(chain(3), sentence)

    def test_verdict_at_the_clamp_is_isomorphism(self):
        # past min(A.n, B.n) + 1 rounds the game is clamped; there it already decides isomorphism
        small = [L for n in range(2, 6) for L in lattices_of_size(n)]
        for A in small:
            for B in small:
                c = min(A.n, B.n) + 1
                assert ef_equivalent(A, B, c)[0] == (lattice_isomorphism(A, B) is not None)

    def test_monotone_in_rounds(self):
        A, B = chain(3), chain(4)
        verdicts = [ef_equivalent(A, B, k)[0] for k in range(5)]
        # once false, false forever
        for early, late in zip(verdicts, verdicts[1:]):
            assert early or not late


class TestStrategySentences:
    def test_sentences_separate(self):
        pairs = [
            (chain(2), chain(3), 1),
            (chain(3), chain(4), 2),
            (powerset_lattice(2), powerset_lattice(3), 3),
            (chain(4), powerset_lattice(2), 2),
        ]
        for A, B, k in pairs:
            ok, strategy = ef_equivalent(A, B, k)
            assert not ok
            sentence = strategy_to_sentence(A, B, strategy)
            assert eval_formula(A, sentence) is True
            assert eval_formula(B, sentence) is False

    def test_no_strategy_is_refused(self):
        # the matcher survives chain(3) against itself, so there is no strategy to convert
        assert ef_equivalent(chain(3), chain(3), 3) == (True, None)
        with pytest.raises(PreconditionViolated, match="no strategy: the matcher survived"):
            strategy_to_sentence(chain(3), chain(3), None)

    def test_a_strategy_that_marks_a_live_reply_dead_is_refused(self):
        # pebbling the middle of chain(3) on both sides leaves the position live
        dead_everywhere = SpoilerStrategy("A", 1, (None, None, None))
        with pytest.raises(PreconditionViolated, match="no atom tells reply 1 apart: the strategy does not win"):
            strategy_to_sentence(chain(3), chain(3), dead_everywhere)

    def test_all_small_pairs_yield_checked_sentences(self):
        small = lattices_of_size(2) + lattices_of_size(3) + lattices_of_size(4)
        for i, A in enumerate(small):
            for B in small[i + 1 :]:
                ok, strategy = ef_equivalent(A, B, A.n + B.n)
                if not ok:
                    strategy_to_sentence(A, B, strategy)  # asserts internally


class TestElementaryEquivalence:
    def test_equivalence_iff_isomorphism_small(self):
        small = lattices_of_size(2) + lattices_of_size(3) + lattices_of_size(4)
        for A in small:
            for B in small:
                assert elementarily_equivalent_finite(A, B) == (
                    lattice_isomorphism(A, B) is not None
                )

    def test_reflexive(self):
        assert elementarily_equivalent_finite(chain(3), chain(3))

    def test_permuted_presentations(self):
        A = powerset_lattice(2)
        assert elementarily_equivalent_finite(A, permuted_copy(A, [0, 2, 1, 3]))

    def test_chains_of_different_length(self):
        assert not elementarily_equivalent_finite(chain(3), chain(4))


def up_to(size):
    return [L for n in range(2, size + 1) for L in lattices_of_size(n)]


def shuffled_copies(lattices, seed):
    rng = random.Random(seed)
    out = []
    for L in lattices:
        perm = list(range(L.n))
        rng.shuffle(perm)
        out.append(permuted_copy(L, perm))
    return out


def same_as_reference(A, B, rounds):
    """The game's verdict and strategy, and the printed sentence, equal the
    plain game's in tests/oracles.py."""
    got = ef_equivalent(A, B, rounds)
    want = reference_ef_equivalent(A, B, rounds)
    if got != want:
        return False
    return got[0] or print_formula(strategy_to_sentence(A, B, got[1])) == print_formula(reference_sentence(A, B, want[1]))


class TestAgainstThePlainGame:
    """The forward-checked game answers as the plain one did: same verdicts,
    strategies and sentences."""

    def test_every_pair_up_to_size_5_at_rounds_0_to_4(self):
        small = up_to(5)
        for A in small:
            for B in small:
                for rounds in range(5):
                    assert same_as_reference(A, B, rounds), (A.meet, B.meet, rounds)

    def test_every_pair_of_size_6_at_4_rounds(self):
        six = lattices_of_size(6)
        for A in six:
            for B in six:
                assert same_as_reference(A, B, 4), (A.meet, B.meet)

    def test_permuted_copies(self):
        lattices = lattices_of_size(5) + lattices_of_size(6)[::3]
        copies = shuffled_copies(lattices, seed=12)
        for L, P in zip(lattices, copies):
            assert ef_equivalent(L, P, 4) == (True, None)
            for other in lattices[:6]:
                assert same_as_reference(P, other, 3) and same_as_reference(other, P, 3)


class RecordedGame(ef._Game):
    played = []

    def __init__(self, A, B):
        super().__init__(A, B)
        RecordedGame.played.append(self)


def positions(game):
    """Each position whose reply masks the game worked out, as a set of pairs."""
    low = (1 << game.width) - 1
    for code, masks in game.replies.items():
        pairs = {(a, (code >> game.width * a & low) - 1) for a in range(game.A.n) if code >> game.width * a & low}
        yield pairs, masks


class TestReplyMasks:
    @pytest.fixture
    def games(self, monkeypatch):
        monkeypatch.setattr(ef, "_Game", RecordedGame)
        RecordedGame.played = []
        small = up_to(5)
        six = lattices_of_size(6)
        cases = [(A, B, 4) for A in small for B in small]
        cases += [(A, B, 6) for A in six[::3] for B in six[1::3]]
        seven = lattices_of_size(7)
        cases += [(A, B, 4) for A in seven[::9] for B in seven[4::9]]
        cases += [(L, P, 7) for L, P in zip(six[::4], shuffled_copies(six[::4], seed=5))]
        for A, B, rounds in cases:
            ok, strategy = ef_equivalent(A, B, rounds)
            if not ok:
                strategy_to_sentence(A, B, strategy)
        # unguided, the matcher tries many more replies on isomorphic copies
        monkeypatch.setattr(ef, "lattice_isomorphism", lambda A, B: None)
        copies = [(L, P, 4) for L, P in zip(six[1::4], shuffled_copies(six[1::4], seed=6))]
        for A, B, rounds in copies:
            assert ef_equivalent(A, B, rounds) == (True, None)
        assert len(RecordedGame.played) == len(cases) + len(copies)
        return RecordedGame.played

    def test_masks_are_the_live_replies(self, games):
        checked = 0
        for game in games:
            A, B = game.A, game.B
            for pairs, (masks_A, masks_B) in positions(game):
                assert reference_consistent(A, B, pairs), pairs  # only live positions are reached
                for a in range(A.n):
                    live = sum(1 << b for b in range(B.n) if reference_consistent(A, B, pairs | {(a, b)}))
                    assert masks_A[a] == live, (A.meet, B.meet, pairs, "A", a)
                for b in range(B.n):
                    live = sum(1 << a for a in range(A.n) if reference_consistent(A, B, pairs | {(a, b)}))
                    assert masks_B[b] == live, (A.meet, B.meet, pairs, "B", b)
                checked += 1
        assert checked > 900

    def test_pairs_that_land_on_one_element_apart_leave_it_no_reply(self):
        # A: 0 < e < x < 1 and e < y < z < 1.  B: 0 < e1 < e2 < fx < 1,
        # e1 < fy < fz < 1 and e2 < fz.  The position x, y, z -> fx, fy, fz is
        # live, as x ^ y = e and x ^ z = e land on the unpebbled e1 and e2, and
        # so e has no reply: pebbling e1 makes x ^ z = e while fx ^ fz = e2.
        # No game reaches it (the challenger wins at 2 rounds), so the masks
        # are read directly.
        A = order_lattice(6, [(0, 1), (1, 2), (2, 5), (1, 3), (3, 4), (4, 5)])
        B = order_lattice(7, [(0, 1), (1, 2), (2, 3), (3, 6), (1, 4), (4, 5), (5, 6), (2, 5)])
        f = {0: 0, 5: 6, 2: 3, 3: 4, 4: 5}
        assert A.meet[2][3] == A.meet[2][4] == 1 and (B.meet[3][4], B.meet[3][5]) == (1, 2)
        pairs = frozenset(f.items())
        assert reference_consistent(A, B, pairs)
        masks = ef._reply_masks(A, B, _preimages(B), f)
        assert masks[1] == 0
        for a in range(A.n):
            assert masks[a] == sum(1 << b for b in range(B.n) if reference_consistent(A, B, pairs | {(a, b)})), a


def order_lattice(n, covers):
    """The lattice on 0..n-1 whose order is generated by the pairs (lower,
    upper) of covers, 0 being the bottom and n - 1 the top."""
    up = [{a} for a in range(n)]
    for _ in range(n):
        for a, b in covers:
            for u in up:
                if a in u:
                    u |= up[b]
    size = lambda c: len(up[c])  # the fewer elements above c, the higher c is
    meet = tuple(tuple(min((c for c in range(n) if {a, b} <= up[c]), key=size) for b in range(n)) for a in range(n))
    join = tuple(tuple(max(up[a] & up[b], key=size) for b in range(n)) for a in range(n))
    return validate(tuple(map(str, range(n))), meet, join, 0, n - 1)


class TestIsomorphismOnlyOrdersReplies:
    """No verdict rests on the isomorphism: with a wrong one, or none, the
    game gives the same verdicts and strategies."""

    def cases(self):
        five = lattices_of_size(5)
        six = lattices_of_size(6)[::2]
        pairs = [(A, B) for A in five for B in five]
        pairs += [(L, P) for L, P in zip(six, shuffled_copies(six, seed=9))]
        pairs += [(L, chain(L.n)) for L in six]
        return pairs

    @staticmethod
    def wrong(A, B):
        # a bijection that is not an isomorphism: the identity, or else the swap of bottom and top
        if A.n != B.n:
            return None
        sigma = {a: a for a in range(A.n)}
        if all(B.meet[a][b] == A.meet[a][b] for a in range(A.n) for b in range(A.n)):
            sigma[A.bottom], sigma[A.top] = A.top, A.bottom
        return sigma

    @pytest.mark.parametrize("guide", ["wrong", "none"])
    def test_verdicts_do_not_rest_on_the_isomorphism(self, monkeypatch, guide):
        cases = self.cases()
        expected = [ef_equivalent(A, B, 4) for A, B in cases]
        assert sum(ok for ok, _ in expected) == 14  # self-pairs of size 5, permuted copies, the 6-chain
        monkeypatch.setattr(ef, "lattice_isomorphism", self.wrong if guide == "wrong" else lambda A, B: None)
        assert [ef_equivalent(A, B, 4) for A, B in cases] == expected

    def test_the_game_alone_proves_isomorphic_copies_equivalent(self, monkeypatch):
        six = lattices_of_size(6)
        copies = shuffled_copies(six, seed=21)
        monkeypatch.setattr(ef, "lattice_isomorphism", lambda A, B: None)
        for L, P in zip(six, copies):
            assert ef_equivalent(L, P, L.n + 1) == (True, None)
        # with a wrong guide the cross-check still runs, and still passes
        monkeypatch.setattr(ef, "lattice_isomorphism", self.wrong)
        for L, P in zip(six, copies):
            assert elementarily_equivalent_finite(L, P)


class TestDeadReplyAtoms:
    """Every dead reply's atom, worked out for all of a node's dead replies
    at once, is the one the plain separator of tests/oracles.py finds."""

    def test_every_dead_reply_against_the_plain_separator(self, monkeypatch):
        calls = []
        dead_atoms = ef._dead_atoms

        def recorded(*args):
            atoms = dead_atoms(*args)
            calls.append((args, atoms))
            return atoms

        monkeypatch.setattr(ef, "_dead_atoms", recorded)
        six = lattices_of_size(6)
        cases = [(A, B, 5) for A in up_to(5) for B in up_to(5)] + [(A, B, 4) for A in six for B in six]
        for A, B, rounds in cases:
            ok, strategy = ef_equivalent(A, B, rounds)
            if not ok:
                strategy_to_sentence(A, B, strategy)
        checked = 0
        for (L, M, on_L, on_M, x, dead, in_A), atoms in calls:
            assert sorted(atoms) == [y for y in range(M.n) if dead >> y & 1]
            for y, atom in atoms.items():
                if in_A:
                    want = reference_atomic_separator(L, M, on_L[2:] + [x], on_M[2:] + [y])
                else:
                    want = reference_atomic_separator(M, L, on_M[2:] + [y], on_L[2:] + [x])
                assert atom == want, (L.meet, M.meet, on_L, on_M, x, y, in_A)
                checked += 1
        assert checked == 8946


def sweep_head(size, rounds):
    """The verdict counts and digest lines of scripts/ef_sweep.py."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "ef_sweep.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--size", str(size), "--rounds", str(rounds)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[:3]


def test_the_size_6_sweep_is_pinned():
    # the digest the plain game of tests/oracles.py gives for these 225 pairs
    assert sweep_head(6, 4) == [
        "equivalent 15",
        "separated 210",
        "sentences sha256 01cbd2ff47b1ae3ac1ee50aa4550218e026db4c0b32f953e402a7b782fea5e38",
    ]


@pytest.mark.parametrize(
    "size, rounds, equivalent, separated, digest",
    [
        (5, 5, 5, 20, "3d351190d89958a3ae685488bcaacf86c92bdc347c12ab3a27d6a9cf2a53feb5"),
        (7, 3, 53, 2756, "1af2ccf1d92ecc4fa9f4309ba018e78d4b4bd5b0f1111603fb493fe779b18c35"),
    ],
)
def test_the_size_5_and_7_sweeps_are_pinned(size, rounds, equivalent, separated, digest):
    assert sweep_head(size, rounds) == [
        f"equivalent {equivalent}",
        f"separated {separated}",
        f"sentences sha256 {digest}",
    ]
