"""Brute-force oracles for the tests, meant only for very small inputs:
every labeled lattice on n elements, and an exhaustive search over point
maps set against `find_L_morphism`.
"""

from wallman_lab.homsearch import find_L_morphism
from wallman_lab.lattice import validate
from wallman_lab.spaces import is_continuous, is_surjective


def all_labeled_lattices(n):
    """Naive oracle: every labeled bounded lattice on {0..n-1}, duplicates included.

    Brute force over all order matrices; intended only for cross-checks at
    very small n.
    """
    out = []
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    for mask in range(1 << len(pairs)):
        le = [[a == b for b in range(n)] for a in range(n)]
        for i, (a, b) in enumerate(pairs):
            if mask >> i & 1:
                le[a][b] = True
        ok = True
        for a in range(n):
            for b in range(n):
                if a != b and le[a][b] and le[b][a]:
                    ok = False
                    break
                if le[a][b]:
                    for c in range(n):
                        if le[b][c] and not le[a][c]:
                            ok = False
                            break
                if not ok:
                    break
            if not ok:
                break
        if not ok:
            continue
        bots = [a for a in range(n) if all(le[a][b] for b in range(n))]
        tops = [a for a in range(n) if all(le[b][a] for b in range(n))]
        if len(bots) != 1 or len(tops) != 1 or bots[0] == tops[0]:
            continue
        meet = [[None] * n for _ in range(n)]
        join = [[None] * n for _ in range(n)]
        lattice = True
        for a in range(n):
            for b in range(n):
                lower = [c for c in range(n) if le[c][a] and le[c][b]]
                glb = [c for c in lower if all(le[d][c] for d in lower)]
                upper = [c for c in range(n) if le[a][c] and le[b][c]]
                lub = [c for c in upper if all(le[c][d] for d in upper)]
                if len(glb) != 1 or len(lub) != 1:
                    lattice = False
                    break
                meet[a][b] = glb[0]
                join[a][b] = lub[0]
            if not lattice:
                break
        if not lattice:
            continue
        names = tuple(f"e{i}" for i in range(n))
        out.append(validate(names, meet, join, bots[0], tops[0]))
    return out


def oracle_surjection_equivalence(X, Y, base=None):
    """Exhaustive map search versus morphism search; they must agree for
    discrete spaces."""
    if base is None:
        base = Y.closed_sorted()
    oracle = False
    maps = [[]]
    for _ in range(X.point_count):
        maps = [m + [y] for m in maps for y in range(Y.point_count)]
    for f in maps:
        if is_surjective(f, X, Y) and is_continuous(f, X, Y):
            oracle = True
            break
    morphism = find_L_morphism(Y, base, X) is not None
    return {"oracle": oracle, "morphism": morphism, "agree": oracle == morphism}
