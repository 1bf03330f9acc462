#!/usr/bin/env python3
"""Count the topologies on each number of labeled points, with the time and
memory it takes.

    PYTHONPATH=src python scripts/space_census.py --max-points N

Runs the search under `all_spaces` for n = 0..N in turn and prints one line
per point count: the count, checked against OEIS A000798 (the number of
topologies on n labeled points), the seconds spent searching and hashing,
the peak resident memory of the process so far, and the SHA-256 of the
closed-set families in the order `all_spaces` gives them (one line per
family, its masks ascending and space-separated).  It counts through the
search's generator, so no tuple of spaces is held.  N is at most 6, the cap
of `all_spaces`.  Exits 1 when a count disagrees.
"""

import argparse
import hashlib
import resource
import sys
import time

from wallman_lab.cli import quiet_on_closed_pipe
from wallman_lab.spaces import SPACE_POINT_CAP, _topologies

# OEIS A000798, topologies on n labeled points (Erné & Stege 1991)
A000798 = {0: 1, 1: 1, 2: 4, 3: 29, 4: 355, 5: 6942, 6: 209527, 7: 9535241}


def census(n):
    """(count, sha256) of the families of `_topologies(n)`, in order."""
    h = hashlib.sha256()
    count = 0
    for family in _topologies(n):
        if count:
            h.update(b"\n")
        h.update(" ".join(map(str, sorted(family))).encode())
        count += 1
    return count, h.hexdigest()


def peak_rss_mb():
    """The peak resident memory of this process so far (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max-points", type=int, required=True, metavar="N")
    args = parser.parse_args()
    if not 0 <= args.max_points <= SPACE_POINT_CAP:
        parser.error(f"--max-points must be between 0 and {SPACE_POINT_CAP}")
    print("points topologies A000798 seconds peak_rss_mb sha256")
    agree = True
    for n in range(args.max_points + 1):
        started = time.perf_counter()
        count, digest = census(n)
        seconds = time.perf_counter() - started
        known = A000798[n]
        agree = agree and known == count
        verdict = "ok" if known == count else f"MISMATCH {known}"
        print(f"{n} {count} {verdict} {seconds:.2f} {peak_rss_mb():.1f} {digest}", flush=True)
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(quiet_on_closed_pipe(main))
