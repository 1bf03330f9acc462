#!/usr/bin/env python3
"""Search for the smallest lattices witnessing selected properties.

Two searches:
  --non-normal     the least lattice that is not normal: it has disjoint
                   x, y with no u, v such that x ^ u = 0, y ^ v = 0 and
                   u v v = 1
  --pairs T        the least lattice carrying T disjoint pairs (a_i, b_i)
                   such that every mixed meet avoiding a matched pair is
                   nonzero (T=2 finds a 10-element model in a few
                   seconds)
"""

import argparse
import sys
import time

from wallman_lab.cli import quiet_on_closed_pipe
from wallman_lab.fol import Not, Theory, builtin_normality, print_formula
from wallman_lab.modelfinder import Model, SearchBudget, find_model, kappa_constants_theory


def report(result, started):
    elapsed = time.monotonic() - started
    if isinstance(result, Model):
        L = result.lattice
        print(f"model of size {L.n} found in {elapsed:.1f}s")
        for i in L.elements():
            row = " ".join(L.name(L.meet[i][j]) for j in L.elements())
            print(f"  meet {L.name(i)}: {row}")
        if result.interpretation:
            interp = ", ".join(
                f"{k} = {L.name(v)}" for k, v in sorted(result.interpretation.items())
            )
            print(f"  constants: {interp}")
    else:
        print(f"{type(result).__name__} after {elapsed:.1f}s: {result}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--non-normal", action="store_true")
    parser.add_argument("--pairs", type=int, metavar="T")
    parser.add_argument("--max-size", type=int, default=10)
    parser.add_argument("--time-limit", type=float, default=600.0)
    args = parser.parse_args()
    budget = SearchBudget(
        max_size=args.max_size, node_limit=10**9, time_limit=args.time_limit
    )
    if args.non_normal:
        theory = Theory((), (Not(builtin_normality()),))
        print("searching:", print_formula(theory.sentences[0]))
        started = time.monotonic()
        report(find_model(theory, budget), started)
    if args.pairs:
        theory = kappa_constants_theory(args.pairs)
        print(f"searching for {args.pairs} disjoint pairs, {len(theory.sentences)} sentences")
        started = time.monotonic()
        report(find_model(theory, budget), started)
    if not args.non_normal and not args.pairs:
        parser.error("choose --non-normal and/or --pairs T")


if __name__ == "__main__":
    sys.exit(quiet_on_closed_pipe(main))
