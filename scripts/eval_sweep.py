#!/usr/bin/env python3
"""Decide the six builtin sentences on every lattice of one size, by formula
evaluation and by the direct deciders, and compare the two.

    PYTHONPATH=src python scripts/eval_sweep.py --size N

For each builtin it runs `eval_formula` and the direct decider that the
model finder runs in its place on each lattice of `lattices_of_size(N)`,
2 <= N <= 9.  It prints the verdict counts of each path and the SHA-256 of
the verdicts (one "True" or "False" line per lattice, in order), then the
seconds each path took.  It exits 1 when the two paths disagree on some
lattice, naming the first.  The tests pin size 6, times aside.
"""

import argparse
import hashlib
import sys
import time

from wallman_lab.cli import quiet_on_closed_pipe
from wallman_lab.enumeration import lattices_of_size
from wallman_lab.fol import (
    builtin_HI,
    builtin_conn,
    builtin_dim_le1,
    builtin_disjunctive,
    builtin_distributive,
    builtin_normality,
    eval_formula,
)
from wallman_lab.modelfinder import _deciders

BUILTINS = (builtin_normality, builtin_conn, builtin_HI, builtin_dim_le1, builtin_distributive, builtin_disjunctive)


def timed(decide, lattices):
    """(the verdict of decide on each lattice, seconds)."""
    started = time.perf_counter()
    verdicts = [decide(L) for L in lattices]
    return verdicts, time.perf_counter() - started


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--size", type=int, required=True)
    args = parser.parse_args()
    if not 2 <= args.size <= 9:
        parser.error("--size must be between 2 and 9")
    lattices = lattices_of_size(args.size)  # built before the clock starts
    times, status = [], 0
    for builtin in BUILTINS:
        name, sentence = builtin.__name__.removeprefix("builtin_"), builtin()
        by_eval, eval_s = timed(lambda L: eval_formula(L, sentence), lattices)
        direct, direct_s = timed(_deciders()[sentence], lattices)
        counts = [f"holds {sum(v)}, fails {len(v) - sum(v)}" for v in (by_eval, direct)]
        print(f"{name} eval {counts[0]}; direct {counts[1]}")
        digest = hashlib.sha256("\n".join(map(str, by_eval)).encode()).hexdigest()
        print(f"{name} sha256 {digest}")
        if by_eval != direct:
            first = next(i for i, (a, b) in enumerate(zip(by_eval, direct)) if a != b)
            print(f"{name} disagrees first on lattice {first}: eval {by_eval[first]}, direct {direct[first]}")
            status = 1
        times.append(f"{name} eval {eval_s:.3f} s, direct {direct_s:.3f} s")
    print("\n".join(times))
    return status


if __name__ == "__main__":
    sys.exit(quiet_on_closed_pipe(main))
