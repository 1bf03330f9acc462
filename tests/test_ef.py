import pytest

from wallman_lab.ef import (
    ef_equivalent,
    elementarily_equivalent_finite,
    strategy_to_sentence,
)
from wallman_lab.enumeration import lattices_of_size
from wallman_lab.fol import eval_formula
from wallman_lab.lattice import chain, lattice_isomorphism, powerset_lattice, validate


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
