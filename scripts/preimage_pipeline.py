#!/usr/bin/env python3
"""Run the staged preimage pipeline for a finite space.

Given a space (JSON file with {"points": n, "closed": [[indices], ...]} or a
discrete space via --discrete N), assemble the theory combining the standard
first-order lattice properties with the diagram of the closed-set lattice,
search for a finite model, take its ultrafilter space, and try to map that
space back onto the input.  Each stage prints its outcome; later stages are
skipped when an earlier one fails, which for most spaces it provably must at
finite sizes.

With --sweep N the model search runs for every space on N points, at max
size 10 with node limit 2,000,000, and the outcome counts are printed with
the elapsed time.  Only the indiscrete space has a model (on 2 elements):
3 points give 28 ExhaustedNoModel and 1 Model, which the tests pin, and
4 points give 354 and 1, the opt-in check:

    PYTHONPATH=src python scripts/preimage_pipeline.py --sweep 4
"""

import argparse
import json
import sys
import time
from collections import Counter

from wallman_lab.cli import load_space, quiet_on_closed_pipe
from wallman_lab.enumeration import lattices_of_size
from wallman_lab.modelfinder import Model, SearchBudget, build_preimage
from wallman_lab.spaces import all_spaces, discrete_space

SWEEP_BUDGET = SearchBudget(max_size=10, node_limit=2_000_000)


def sweep(points):
    """How many spaces on `points` points give each model-search outcome."""
    counts = Counter()
    for X in all_spaces(points):
        model = build_preimage(X, SWEEP_BUDGET)["model"]
        counts[f"Model on {model.lattice.n} elements" if isinstance(model, Model) else repr(model)] += 1
    return counts


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("space", nargs="?", help="space JSON file")
    parser.add_argument("--discrete", type=int, metavar="N")
    parser.add_argument("--sweep", type=int, metavar="N", help="every space on N points")
    parser.add_argument("--max-size", type=int, default=6)
    args = parser.parse_args()
    if args.sweep is not None:
        started = time.perf_counter()
        lattices_of_size(SWEEP_BUDGET.max_size)
        built = time.perf_counter()
        counts = sweep(args.sweep)
        for outcome, count in sorted(counts.items()):
            print(f"{count} {outcome}")
        print(
            f"{sum(counts.values())} spaces in {time.perf_counter() - built:.1f} s "
            f"(lattices built in {built - started:.1f} s before)"
        )
        return
    if args.discrete is not None:
        X = discrete_space(args.discrete)
    elif args.space:
        X = load_space(args.space)
    else:
        parser.error("give a space file, --discrete N or --sweep N")

    report = build_preimage(X, SearchBudget(max_size=args.max_size))
    summary = report["theory"]
    print(f"theory: {summary['sentences']} sentences, {summary['constants']} constants")
    model = report["model"]
    if not isinstance(model, Model):
        print(f"model search: {type(model).__name__} — no lattice within the budget")
        return
    print(f"model search: lattice of size {model.lattice.n}")
    print(f"ultrafilter space: {json.dumps(report['wallman'])}")
    if "surjection" in report:
        print(f"surjection check: {report['surjection']}")


if __name__ == "__main__":
    sys.exit(quiet_on_closed_pipe(main))
