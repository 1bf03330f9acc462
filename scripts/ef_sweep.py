#!/usr/bin/env python3
"""Play the pebble game on every ordered pair of lattices of one size.

    PYTHONPATH=src python scripts/ef_sweep.py --size N --rounds R

For each ordered pair (A, B) of `lattices_of_size(N)` it plays
`ef_equivalent(A, B, R)` and, when the challenger wins, builds the checked
separating sentence with `strategy_to_sentence`.  It prints the verdict
counts, the SHA-256 of the printed sentences (one line per pair in pair
order, "=" for a pair the matcher holds), and the time spent in the games
and in the sentences.  The digest depends only on the answers, so two
versions of `ef` that print the same digest gave the same verdicts and
sentences.  The tests pin size 6 at 4 rounds, the games of the map-search
benchmark played both ways round.
"""

import argparse
import hashlib
import sys
import time

from wallman_lab.cli import quiet_on_closed_pipe
from wallman_lab.ef import ef_equivalent, strategy_to_sentence
from wallman_lab.enumeration import lattices_of_size
from wallman_lab.fol import print_formula


def sweep(size, rounds):
    """(equivalent count, separated count, digest, game seconds, sentence seconds)."""
    lattices = lattices_of_size(size)
    lines, equivalent, game_s, sentence_s = [], 0, 0.0, 0.0
    for A in lattices:
        for B in lattices:
            started = time.perf_counter()
            same, strategy = ef_equivalent(A, B, rounds)
            played = time.perf_counter()
            game_s += played - started
            if same:
                equivalent += 1
                lines.append("=")
                continue
            lines.append(print_formula(strategy_to_sentence(A, B, strategy)))
            sentence_s += time.perf_counter() - played
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return equivalent, len(lines) - equivalent, digest, game_s, sentence_s


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--size", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    args = parser.parse_args()
    lattices_of_size(args.size)  # built before the clock starts
    equivalent, separated, digest, game_s, sentence_s = sweep(args.size, args.rounds)
    print(f"equivalent {equivalent}")
    print(f"separated {separated}")
    print(f"sentences sha256 {digest}")
    print(f"games {game_s:.3f} s, sentences {sentence_s:.3f} s")


if __name__ == "__main__":
    sys.exit(quiet_on_closed_pipe(main))
