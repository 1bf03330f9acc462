#!/usr/bin/env python3
"""Run every interval operation of acceptance criterion 8 on a fixed pool.

    PYTHONPATH=src python scripts/interval_sweep.py [--passes K]

The pool is the benchmark's 2000 (x, y, z, cut) inputs: `random.Random`
seeded with "interval-pool", each set the union of up to three closed
intervals with endpoints in 1/24ths, and each cut in 1/24 .. 23/24.  For
every input the sweep checks the eight lattice laws on x, y and z, forms
meet(x, y) and join(x, y), carves a disjoint pair (lo, hi) out of x and y
around the cut, separates it with `normality_witness`, refutes it as a
partition of [0,1] with `refute_partition`, and, when x is a nonempty set
not below y, finds a `disjunctive_witness` of x off y.

It prints the counts of laws that held, of difference witnesses and of each
refutation, the SHA-256 of the answers (one line per input, endpoints by
`repr`, so an endpoint that is not a Fraction changes it), and the seconds
the fastest of the K passes took, the pool being built before the clock
starts.  The digest depends only on the answers; the tests pin it.
"""

import argparse
import collections
import hashlib
import random
import sys
import time
from fractions import Fraction

from wallman_lab.cli import quiet_on_closed_pipe
from wallman_lab.intervals import disjunctive_witness, join, meet, normality_witness, refute_partition, riset

POOL = 2000
MARGIN = Fraction(1, 48)


def random_set(rng):
    pairs = []
    for _ in range(rng.randint(0, 3)):
        a = Fraction(rng.randint(0, 24), 24)
        b = Fraction(rng.randint(0, 24), 24)
        pairs.append((min(a, b), max(a, b)))
    return riset(*pairs)


def pool():
    rng = random.Random("interval-pool")
    return [(random_set(rng), random_set(rng), random_set(rng), Fraction(rng.randint(1, 23), 24)) for _ in range(POOL)]


def answer(x, y, z, cut):
    """Every criterion 8 operation on one input, as a tuple of results."""
    laws = (
        meet(x, y) == meet(y, x),
        join(x, y) == join(y, x),
        meet(x, meet(y, z)) == meet(meet(x, y), z),
        join(x, join(y, z)) == join(join(x, y), z),
        meet(x, join(x, y)) == x,
        join(x, meet(x, y)) == x,
        meet(x, join(y, z)) == join(meet(x, y), meet(x, z)),
        join(x, meet(y, z)) == meet(join(x, y), join(x, z)),
    )
    lo = meet(x, riset((0, cut - MARGIN)))
    hi = meet(y, riset((cut + MARGIN, 1)))
    difference = disjunctive_witness(x, y) if meet(x, y) != x and not x.is_empty() else None
    return laws, meet(x, y), join(x, y), lo, hi, normality_witness(lo, hi), difference, refute_partition(lo, hi)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--passes", type=int, default=1)
    args = parser.parse_args()
    inputs = pool()
    best = None
    for _ in range(max(args.passes, 1)):
        started = time.perf_counter()
        answers = [answer(*item) for item in inputs]
        seconds = time.perf_counter() - started
        best = seconds if best is None else min(best, seconds)
    laws = sum(sum(a[0]) for a in answers)
    differences = sum(a[6] is not None for a in answers)
    refutations = collections.Counter(a[7][0] for a in answers)
    text = "\n".join(repr(a) for a in answers)
    print(f"inputs {len(answers)}, laws held {laws} of {8 * len(answers)}, difference witnesses {differences}")
    print("refutations " + ", ".join(f"{reason} {count}" for reason, count in sorted(refutations.items())))
    print(f"answers sha256 {hashlib.sha256(text.encode()).hexdigest()}")
    print(f"{best:.3f} s")


if __name__ == "__main__":
    sys.exit(quiet_on_closed_pipe(main))
