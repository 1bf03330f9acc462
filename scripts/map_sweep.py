#!/usr/bin/env python3
"""Run both `homsearch` searches over fixed families of small inputs.

    PYTHONPATH=src python scripts/map_sweep.py [--discrete N [K]]

Embeddings: every lattice of size 2..7 into 2^3, 2^4 and each lattice of
size 8 (17,248 pairs).  Base morphisms: `find_L_morphism(Y, closed sets of
Y, X)` for every Y of `all_spaces(0..3)` plus the discrete 4-point space,
against every X of `all_spaces(0..4)` (14,040 pairs).  It prints the found
and absent counts, the SHA-256 of the answers (one line per pair in order:
the embedding's images or the morphism's images in base order, or "-"),
and the time spent in each search.  The digests depend only on the answers,
so two versions of `homsearch` that print the same digests returned the
same first embeddings and morphisms.  The tests pin both digests.

With --discrete N K it also times the search for a base morphism from the
discrete K-point space into the discrete N-point space, which gives a
continuous surjection of N points onto K; K defaults to N.
"""

import argparse
import hashlib
import sys
import time

from wallman_lab.cli import quiet_on_closed_pipe
from wallman_lab.enumeration import lattices_of_size
from wallman_lab.homsearch import find_L_morphism, find_lattice_embedding
from wallman_lab.lattice import powerset_lattice
from wallman_lab.spaces import all_spaces, discrete_space


def embedding_line(B, L):
    emb = find_lattice_embedding(B, L)
    return "-" if emb is None else " ".join(str(emb[e]) for e in B.elements())


def morphism_line(Y, X):
    phi = find_L_morphism(Y, Y.closed_sorted(), X)
    return "-" if phi is None else " ".join(str(phi.assignment[b]) for b in phi.base)


def sweep(answer, pairs):
    """(count found, count absent, digest, seconds)."""
    lines, started = [], time.perf_counter()
    for a, b in pairs:
        lines.append(answer(a, b))
    seconds = time.perf_counter() - started
    absent = lines.count("-")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return len(lines) - absent, absent, digest, seconds


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0], usage="%(prog)s [-h] [--discrete N [K]]")
    parser.add_argument(
        "--discrete", type=int, nargs="+", metavar=("N", "K"), help="also time discrete N points onto K (default N)"
    )
    args = parser.parse_args()
    if args.discrete is not None and len(args.discrete) > 2:
        parser.error("--discrete takes N and at most one K")
    # every input is built before the clocks start
    sources = [B for n in range(2, 8) for B in lattices_of_size(n)]
    targets = [powerset_lattice(3), powerset_lattice(4), *lattices_of_size(8)]
    spaces = [X for n in range(5) for X in all_spaces(n)]
    bases = [Y for n in range(4) for Y in all_spaces(n)] + [discrete_space(4)]
    embeddings = sweep(embedding_line, [(B, L) for L in targets for B in sources])
    morphisms = sweep(morphism_line, [(Y, X) for Y in bases for X in spaces])
    print(f"embeddings found {embeddings[0]}, absent {embeddings[1]}")
    print(f"embeddings sha256 {embeddings[2]}")
    print(f"morphisms found {morphisms[0]}, absent {morphisms[1]}")
    print(f"morphisms sha256 {morphisms[2]}")
    print(f"embeddings {embeddings[3]:.3f} s, morphisms {morphisms[3]:.3f} s")
    if args.discrete is not None:
        n, k = (args.discrete * 2)[:2]
        X, Y = discrete_space(n), discrete_space(k)
        started = time.perf_counter()
        found = morphism_line(Y, X) != "-"
        print(f"discrete {n} -> {k} found {found} in {time.perf_counter() - started:.4f} s")


if __name__ == "__main__":
    sys.exit(quiet_on_closed_pipe(main))
