#!/usr/bin/env python3
"""Time the model finder on fixed theories, with the nodes it charges.

    PYTHONPATH=src python scripts/model_sweep.py [--max-size N]

Searches: kappa(1) and kappa(2) to size 10, the HI preimage theory of the
discrete 2-point space to size 9, and the 793 small theories of one to four
sentence options over the constants a and b (those of the benchmark) to
size 4.  --max-size N, 4 <= N <= 10, caps every search at size N.  Every
lattice is built, and every sentence compiled once, before the clocks
start.

For each search it prints the seconds, the nodes charged, nodes per second
and the SHA-256 of its outcomes (one line per theory: the model's size,
meet table and interpretation, or the outcome that is not a model).  The
nodes are counted by a wrapper around `modelfinder._Budget.tick`, whose
cost the seconds include.  It exits 1 when a digest differs from the one
pinned for that size cap, naming the search; the tests pin --max-size 7.
"""

import argparse
import hashlib
import itertools
import sys
import time

from wallman_lab.cli import quiet_on_closed_pipe
from wallman_lab.enumeration import lattices_of_size
from wallman_lab.fol import (
    Theory,
    bind_constants,
    builtin_conn,
    builtin_disjunctive,
    builtin_distributive,
    parse,
)
from wallman_lab.modelfinder import (
    Model,
    SearchBudget,
    _Budget,
    _schedule,
    find_model,
    hi_preimage_theory,
    kappa_constants_theory,
)
from wallman_lab.spaces import closed_set_lattice, discrete_space

# ground sentences over a and b, with the constants each reads; then closed ones
GROUND = (
    ("a ^ b = 0", ("a", "b")),
    ("a v b = 1", ("a", "b")),
    ("!(a = 0)", ("a",)),
    ("!(a = 1)", ("a",)),
    ("!(b = 0)", ("b",)),
    ("a <= b", ("a", "b")),
    ("!(a = b)", ("a", "b")),
)
CLOSED = (
    builtin_conn(),
    builtin_distributive(),
    builtin_disjunctive(),
    parse("E x. (!(x = 0) & !(x = 1))"),
    parse("A x. (x = 0 | x = 1)"),
)

# size cap -> search -> SHA-256 of its outcomes
PINNED = {
    10: {
        "kappa1": "3882ff9fea4114df4664e0241152d9c0c86e3b1b4783cd94f7100c46f6f078f9",
        "kappa2": "46cf027cbf88257971a2cc8b764cd792738eb232bc60a2e6b3a282935eb87d6a",
        "preimage2": "a6c3d4fa14e6b062f7a74646361fec4c38a9397a45f9026bbc819ffa6d2404c2",
        "small": "b626fdac228462f2c3adb8e148e776e5094d973668c48b706ab195bc3412011a",
    },
    7: {
        "kappa1": "3882ff9fea4114df4664e0241152d9c0c86e3b1b4783cd94f7100c46f6f078f9",
        "kappa2": "67306bcff56be3e90c71f7d67677f003940a28a802be39f563ab379c2ce788d4",
        "preimage2": "67306bcff56be3e90c71f7d67677f003940a28a802be39f563ab379c2ce788d4",
        "small": "b626fdac228462f2c3adb8e148e776e5094d973668c48b706ab195bc3412011a",
    },
}


def small_theories():
    """Every theory of one to four distinct options (793 theories)."""
    for k in range(1, 5):
        for picks in itertools.combinations(range(len(GROUND) + len(CLOSED)), k):
            constants = tuple(sorted({c for i in picks if i < len(GROUND) for c in GROUND[i][1]}))
            yield Theory(
                constants,
                tuple(
                    bind_constants(parse(GROUND[i][0]), constants) if i < len(GROUND) else CLOSED[i - len(GROUND)]
                    for i in picks
                ),
            )


def outcome_line(result):
    if isinstance(result, Model):
        L = result.lattice
        return f"model {L.n} {L.meet} {sorted(result.interpretation.items())}"
    return repr(result)


def searches(max_size):
    """(name, theories, budget) of each search."""
    preimage = hi_preimage_theory(closed_set_lattice(discrete_space(2)))
    return [
        ("kappa1", [kappa_constants_theory(1)], SearchBudget(max_size=min(10, max_size), node_limit=10**8)),
        ("kappa2", [kappa_constants_theory(2)], SearchBudget(max_size=min(10, max_size), node_limit=10**8)),
        ("preimage2", [preimage], SearchBudget(max_size=min(9, max_size), node_limit=10**8)),
        ("small", list(small_theories()), SearchBudget(max_size=4, node_limit=10**6)),
    ]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max-size", type=int, default=10, help="cap every search at this size (4..10)")
    args = parser.parse_args()
    if not 4 <= args.max_size <= 10:
        parser.error("--max-size must be between 4 and 10")
    plan = searches(args.max_size)
    # built and compiled before the clocks start
    for n in range(2, args.max_size + 1):
        lattices_of_size(n)
    for _, theories, _ in plan:
        for theory in theories:
            _schedule(theory)
    charged = [0]
    tick = _Budget.tick

    def counted(self, k=1):
        charged[0] += k
        tick(self, k)

    _Budget.tick = counted
    try:
        return report(plan, charged, PINNED.get(args.max_size))
    finally:
        _Budget.tick = tick


def report(plan, charged, pinned):
    """Run and print each search; 1 when a digest differs from pinned."""
    status = 0
    for name, theories, budget in plan:
        charged[0] = 0
        started = time.perf_counter()
        lines = [outcome_line(find_model(theory, budget)) for theory in theories]
        seconds = time.perf_counter() - started
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        print(
            f"{name}: {len(theories)} theories, {charged[0]} nodes, sha256 {digest}; "
            f"{seconds:.3f} s, {charged[0] / seconds:,.0f} nodes/s"
        )
        if pinned is not None and digest != pinned[name]:
            print(f"{name} differs from its pinned digest {pinned[name]}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(quiet_on_closed_pipe(main))
