#!/usr/bin/env python3
"""Sweep distributive lattices and tabulate their ultrafilter spaces.

For every isomorphism class up to --max-size, report how often the canonical
map into the closed-set lattice of the ultrafilter space is injective, how
the separation property transfers, and how connectedness transfers.  Three
self-checks run on every lattice: the canonical map is injective exactly when
the lattice is disjunctive, a normal lattice has a Hausdorff ultrafilter
space, and a disjunctive lattice is connected exactly when its space is.  It
exits 1 when a check fails, naming the check and the lattice (its place in
the sweep's order).
"""

import argparse
import sys
from collections import Counter

from wallman_lab.cli import quiet_on_closed_pipe
from wallman_lab.lattice import conn, enumerate_distributive, is_disjunctive
from wallman_lab.wallman import (
    canonical_hom_report,
    hausdorff_normal_report,
    wallman_connected,
    wallman_space,
)


def sweep(max_size):
    """(the tally, the failed self-checks as (check, lattice index) pairs)."""
    tally, failed = Counter(), []
    for index, L in enumerate(enumerate_distributive(max_size)):
        tally["lattices"] += 1
        tally["points", len(wallman_space(L).points)] += 1
        hom = canonical_hom_report(L)
        checks = {"canonical map injective iff disjunctive": hom["agree"]}
        if hom["is_injective"]:
            tally["injective"] += 1
        hn = hausdorff_normal_report(L)
        if hn["L_normal"]:
            tally["normal"] += 1
        checks["normal implies a Hausdorff space"] = not hn["L_normal"] or hn["wL_hausdorff"]
        if is_disjunctive(L)[0]:
            tally["disjunctive"] += 1
            connected = wallman_connected(L)
            checks["connectedness transfers"] = conn(L, L.top)[0] == connected
            if connected:
                tally["connected"] += 1
        failed.extend((check, index) for check, holds in checks.items() if not holds)
    return tally, failed


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-size", type=int, default=6)
    args = parser.parse_args()
    tally, failed = sweep(args.max_size)
    print(f"distributive lattices up to size {args.max_size}: {tally['lattices']}")
    print(f"  canonical map injective (= disjunctive): {tally['injective']}")
    print(f"  normal: {tally['normal']}")
    print(f"  disjunctive and connected: {tally['connected']}")
    hist = {k[1]: v for k, v in tally.items() if isinstance(k, tuple)}
    for points in sorted(hist):
        print(f"  ultrafilter spaces with {points} points: {hist[points]}")
    for check, index in failed:
        print(f"check failed: {check}, on lattice {index}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(quiet_on_closed_pipe(main))
