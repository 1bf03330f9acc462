#!/usr/bin/env python3
"""Count the lattices of each size, with the time and memory it takes.

    PYTHONPATH=src python scripts/lattice_census.py --max-size N

Builds `lattices_of_size(n)` for n = 2..N in turn and prints one line per
size: the count, checked against OEIS A006966 (the number of lattices on n
unlabelled elements), the seconds spent building that level, the peak
resident memory of the process so far, and the SHA-256 of the level's
tables.  The digest is the one the tests pin for sizes 8 to 10: of the repr
of the list of (names, meet, join, bottom, top), hashed piece by piece so
the repr of a whole level is never held.  Exits 1 when a count disagrees.
"""

import argparse
import hashlib
import resource
import sys
import time

from wallman_lab.cli import quiet_on_closed_pipe
from wallman_lab.enumeration import lattices_of_size

# OEIS A006966, lattices on n unlabelled elements (Heitzig & Reinhold 2002)
A006966 = {
    2: 1, 3: 1, 4: 2, 5: 5, 6: 15, 7: 53, 8: 222, 9: 1078, 10: 5994,
    11: 37622, 12: 262776, 13: 2018305, 14: 16873364,
}


def tables_digest(lattices):
    """sha256(repr([(L.names, L.meet, L.join, L.bottom, L.top), ...]))."""
    h = hashlib.sha256(b"[")
    for i, L in enumerate(lattices):
        if i:
            h.update(b", ")
        h.update(repr((L.names, L.meet, L.join, L.bottom, L.top)).encode())
    h.update(b"]")
    return h.hexdigest()


def peak_rss_mb():
    """The peak resident memory of this process so far (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max-size", type=int, required=True, metavar="N")
    args = parser.parse_args()
    if args.max_size < 2:
        parser.error("--max-size must be at least 2")
    print("size lattices A006966 build_s peak_rss_mb sha256")
    agree = True
    for n in range(2, args.max_size + 1):
        started = time.perf_counter()
        lattices = lattices_of_size(n)
        seconds = time.perf_counter() - started
        rss = peak_rss_mb()
        known = A006966.get(n)
        verdict = "?" if known is None else "ok" if known == len(lattices) else f"MISMATCH {known}"
        agree = agree and known in (None, len(lattices))
        print(f"{n} {len(lattices)} {verdict} {seconds:.2f} {rss:.1f} {tables_digest(lattices)}", flush=True)
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(quiet_on_closed_pipe(main))
