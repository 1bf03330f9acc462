#!/usr/bin/env python3
"""Decide hereditary indecomposability on every lattice of one size.

    PYTHONPATH=src python scripts/hi_sweep.py --size N [--max-points P]

For each lattice of `lattices_of_size(N)` it runs `satisfies_HI`, and for
each space of `all_spaces(1..P)` (P = 4 unless given) it runs
`chicane_condition`.  It prints the verdict counts, the SHA-256 of the
answers (one line per lattice or space, in order: the verdict and the first
foursome without a chicane, or "-"), and the time spent in each sweep.
The digests depend only on the answers, so two versions of the chicane scan
that print the same digests gave the same verdicts and the same first
offenders.  The tests pin size 8 with 4 points.
"""

import argparse
import hashlib
import sys
import time

from wallman_lab.cli import quiet_on_closed_pipe
from wallman_lab.enumeration import lattices_of_size
from wallman_lab.lattice import satisfies_HI
from wallman_lab.spaces import SPACE_POINT_CAP, all_spaces, chicane_condition


def lattice_HI(L):
    """satisfies_HI with the first offender as a plain (c, d, f, g) tuple."""
    ok, fs = satisfies_HI(L)
    return ok, None if fs is None else (fs.c, fs.d, fs.f, fs.g)


def sweep(decide, items):
    """(count of items that hold, count that fail, digest, seconds)."""
    lines, started = [], time.perf_counter()
    for item in items:
        ok, first = decide(item)
        lines.append(f"{ok} {'-' if first is None else first}")
    seconds = time.perf_counter() - started
    holds = sum(line.startswith("True") for line in lines)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return holds, len(lines) - holds, digest, seconds


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--size", type=int, required=True)
    parser.add_argument("--max-points", type=int, default=4, metavar="P")
    args = parser.parse_args()
    if not 1 <= args.max_points <= SPACE_POINT_CAP:
        parser.error(f"--max-points must be between 1 and {SPACE_POINT_CAP}")
    lattices = lattices_of_size(args.size)  # built before the clock starts
    spaces = [X for n in range(1, args.max_points + 1) for X in all_spaces(n)]
    hi = sweep(lattice_HI, lattices)
    chicanes = sweep(chicane_condition, spaces)
    print(f"lattices HI {hi[0]}, not HI {hi[1]}")
    print(f"lattices sha256 {hi[2]}")
    print(f"spaces chicane condition {chicanes[0]}, not {chicanes[1]}")
    print(f"spaces sha256 {chicanes[2]}")
    print(f"lattices {hi[3]:.3f} s, spaces {chicanes[3]:.3f} s")


if __name__ == "__main__":
    sys.exit(quiet_on_closed_pipe(main))
