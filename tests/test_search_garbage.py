"""No search leaves cyclic garbage behind: each recursion is a module-level
function, not a closure that calls itself, so a finished search frees its
memo and its state at once, without waiting for the garbage collector.
Compiling a sentence and rewriting one are walks of the same kind.  The
plans and rows the searches keep are tuples, so a call that builds them
leaves none either."""

import gc

import pytest

from wallman_lab import enumeration, fol, homsearch, lattice
from wallman_lab.ef import ef_equivalent, strategy_to_sentence
from wallman_lab.fol import bind_constants, builtin_HI, compile_sentence, parse
from wallman_lab.homsearch import find_L_morphism, find_lattice_embedding
from wallman_lab.lattice import chain, diamond_m3, lattice_isomorphism, powerset_lattice
from wallman_lab.modelfinder import SearchBudget, find_model, kappa_constants_theory
from wallman_lab.spaces import discrete_space

from oracles import plain_lattice_embedding


def poset_search_inputs():
    # the down-masks of M3 against themselves: the same call as one dedupe test,
    # made directly, since an enumeration level built earlier would be cached
    down = tuple(sum(1 << b for b, m in enumerate(row) if m == b) for row in diamond_m3().meet)
    prof = enumeration._profile(down, enumeration._up_masks(down))
    return down, prof, down, prof


def sentence_inputs():
    # with the compile cache emptied, the call compiles the sentence it checks
    fol._compiled.cache_clear()
    return chain(3), chain(4), ef_equivalent(chain(3), chain(4), 2)[1]


def cold(make_args):
    """make_args with the plan and row caches emptied, so that the call
    under test builds them."""

    def make():
        args = make_args()
        for cache in (homsearch._embedding_plan, homsearch._shared, homsearch._at_least, homsearch._closed_rows, lattice._preimages):
            cache.cache_clear()
        return args

    return make


def refuted_embedding_inputs():
    # the first lattice of size 7 that does not embed into 2^4
    target = powerset_lattice(4)
    return next(B for B in enumeration.lattices_of_size(7) if plain_lattice_embedding(B, target) is None), target


SEARCHES = {
    "ef_equivalent": (ef_equivalent, cold(lambda: (chain(3), chain(4), 2))),
    "strategy_to_sentence": (strategy_to_sentence, sentence_inputs),
    "find_lattice_embedding": (find_lattice_embedding, cold(lambda: (chain(3), powerset_lattice(2)))),
    "find_L_morphism": (find_L_morphism, cold(lambda: (discrete_space(3), discrete_space(3).closed_sorted(), discrete_space(3)))),
    "find_lattice_embedding refuted": (find_lattice_embedding, cold(refuted_embedding_inputs)),
    "find_L_morphism discrete 4": (
        find_L_morphism,
        cold(lambda: (discrete_space(4), discrete_space(4).closed_sorted(), discrete_space(4))),
    ),
    "lattice_isomorphism": (lattice_isomorphism, lambda: (powerset_lattice(2), powerset_lattice(2))),
    "_poset_isomorphic": (enumeration._poset_isomorphic, poset_search_inputs),
    "compile_sentence": (compile_sentence, lambda: (builtin_HI(), ())),
    "bind_constants": (bind_constants, lambda: (parse("A a. (a = b & M(a, b, c))"), ("a", "b", "c"))),
    "find_model": (find_model, lambda: (kappa_constants_theory(1), SearchBudget(max_size=4))),
}


@pytest.mark.parametrize("name", SEARCHES)
def test_a_search_leaves_no_cyclic_garbage(name):
    search, make_args = SEARCHES[name]
    args = make_args()
    gc.collect()
    gc.disable()  # an automatic collection during the call would hide a cycle
    try:
        result = search(*args)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert (result is None) == name.endswith("refuted")

