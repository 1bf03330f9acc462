"""Answer digests and checks that do not trust the layer they check.

Every check here works from raw meet/join tables, closed-set masks or the
formula AST, never from the package's own deciders for the same property.
A check returns a list of problems; an empty list means the answer passed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import re
from fractions import Fraction

from wallman_lab import fol
from wallman_lab.enumeration import lattices_of_size

# Number of bounded lattices with n elements, up to isomorphism (OEIS A006966).
KNOWN_LATTICE_COUNTS = {2: 1, 3: 1, 4: 2, 5: 5, 6: 15, 7: 53, 8: 222, 9: 1078, 10: 5994}

DIGEST_HEX = 8


# ---------------------------------------------------------------- digests


def _sorted(items):
    try:
        return sorted(items)
    except TypeError:  # mixed types: order by text instead
        return sorted(items, key=repr)


def canon(value):
    """A JSON-ready normal form: dataclasses by field, dicts and sets sorted."""
    t = type(value)
    if t is int or t is str or t is bool or value is None:
        return value
    if t is tuple or t is list:
        if all(type(v) is int for v in value):  # the bulk of witness maps
            return value
        return [canon(v) for v in value]
    if t is dict:
        return ["dict", _sorted([(canon(k), canon(v)) for k, v in value.items()])]
    if t is set or t is frozenset:
        return ["set", _sorted([canon(v) for v in value])]
    if t is Fraction:
        return str(value)
    if dataclasses.is_dataclass(value):
        fields = {f.name: canon(getattr(value, f.name)) for f in dataclasses.fields(value)}
        return [t.__name__, fields]
    raise TypeError(f"cannot digest {t.__name__}")


def digest(value):
    text = json.dumps(canon(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:DIGEST_HEX]


class Pins:
    """Pinned answer digests.  The digests of a group of keys that differ
    only in a trailing index (the embeddings into one target lattice) are
    packed into one string, DIGEST_HEX characters per index."""

    def __init__(self, path):
        data = json.loads(path.read_text())
        self.flat, self.packed = data["digests"], data["packed"]

    def lookup(self, key):
        group, _, index = key.rpartition(":")
        if group in self.packed:
            i = int(index)
            return self.packed[group][i * DIGEST_HEX : (i + 1) * DIGEST_HEX] or None
        return self.flat.get(key)


def verdict(query, answer, error, pins):
    """None when the answer passes its check and matches its pin, else why not."""
    if error is not None:
        return error
    problems = query.check(answer)
    if problems:
        return "; ".join(problems)
    got, want = digest(query.view(answer)), pins.lookup(query.key)
    if want is None:
        return f"no pinned digest for {query.key}"
    if got != want:
        return f"digest {got} differs from pinned {want}"
    return None


_ELAPSED_RE = re.compile(r'"elapsed_ms": \d+')


def mask_elapsed(stdout):
    """CLI stdout with the run-dependent elapsed_ms field zeroed."""
    return _ELAPSED_RE.sub('"elapsed_ms": 0', stdout)


def enumeration_problems(sizes):
    """Lattice counts per size against the known sequence."""
    counts = {n: len(lattices_of_size(n)) for n in sizes}
    return [
        f"{counts[n]} lattices of size {n}, expected {KNOWN_LATTICE_COUNTS[n]}"
        for n in sizes
        if counts[n] != KNOWN_LATTICE_COUNTS[n]
    ]


# ---------------------------------------------------------------- formulas


def _term(L, t, env):
    if isinstance(t, fol.Bottom):
        return L.bottom
    if isinstance(t, fol.Top):
        return L.top
    if isinstance(t, (fol.Var, fol.Const)):
        return env[t.name]
    if isinstance(t, fol.Meet):
        return L.meet[_term(L, t.left, env)][_term(L, t.right, env)]
    if isinstance(t, fol.Join):
        return L.join[_term(L, t.left, env)][_term(L, t.right, env)]
    raise TypeError(f"not a term: {t!r}")


def holds(L, f, env):
    """Plain recursive Tarskian truth of formula f in L under env."""
    if isinstance(f, fol.Eq):
        return _term(L, f.left, env) == _term(L, f.right, env)
    if isinstance(f, fol.Leq):
        a = _term(L, f.left, env)
        return L.meet[a][_term(L, f.right, env)] == a
    if isinstance(f, fol.JPred):
        return L.join[_term(L, f.left, env)][_term(L, f.right, env)] == L.top
    if isinstance(f, fol.MPred):
        acc = L.top
        for t in f.terms:
            acc = L.meet[acc][_term(L, t, env)]
        return acc == L.bottom
    if isinstance(f, fol.Not):
        return not holds(L, f.body, env)
    if isinstance(f, fol.And):
        return holds(L, f.left, env) and holds(L, f.right, env)
    if isinstance(f, fol.Or):
        return holds(L, f.left, env) or holds(L, f.right, env)
    if isinstance(f, fol.Implies):
        return not holds(L, f.left, env) or holds(L, f.right, env)
    if isinstance(f, (fol.Forall, fol.Exists)):
        test = all if isinstance(f, fol.Forall) else any
        return test(holds(L, f.body, {**env, f.var: a}) for a in range(L.n))
    raise TypeError(f"not a formula: {f!r}")


def smallest_model_size(theory, lattices_by_size, max_size):
    """Least lattice size carrying a model of the theory, by brute force."""
    for n in range(2, max_size + 1):
        for L in lattices_by_size[n]:
            for values in itertools.product(range(L.n), repeat=len(theory.constants)):
                env = dict(zip(theory.constants, values))
                if all(holds(L, s, env) for s in theory.sentences):
                    return n
    return None


# ---------------------------------------------------------------- lattices


def predicate_witness_problems(L, results):
    """Re-check each predicate's verdict or witness from the tables."""
    meet, join, bot, top = L.meet, L.join, L.bottom, L.top
    els = range(L.n)
    out = []
    holds_, w = results["distributive"]
    if not holds_:
        a, b, c = w
        if meet[a][join[b][c]] == join[meet[a][b]][meet[a][c]]:
            out.append("distributive witness satisfies the law")
    holds_, w = results["disjunctive"]
    if not holds_:
        a, b = w
        if meet[a][b] == a or any(
            c != bot and meet[c][a] == c and meet[c][b] == bot for c in els
        ):
            out.append("disjunctive witness is separated")
    holds_, w = results["normal"]
    if holds_:
        for (x, y), (u, v) in w.items():
            if not (meet[x][y] == bot and meet[x][u] == bot and meet[y][v] == bot and join[u][v] == top):
                out.append(f"normal witness {(x, y)} fails")
                break
    else:
        x, y = w
        if meet[x][y] != bot or any(
            meet[x][u] == bot and meet[y][v] == bot and join[u][v] == top for u in els for v in els
        ):
            out.append("normal counterexample is separated")
    holds_, w = results["connected"]
    if not holds_:
        x, y = w
        if not (meet[x][y] == bot and join[x][y] == top and x not in (bot, top)):
            out.append("connectedness witness is not a splitting")
    holds_, w = results["hi"]
    if not holds_:
        c, d, f, g = w.c, w.d, w.f, w.g
        if not (meet[c][d] == bot and meet[c][f] == bot and meet[d][g] == bot):
            out.append("HI foursome is not pliand")
        elif any(
            meet[c][join[z2][z3]] == bot
            and meet[d][join[z1][z2]] == bot
            and meet[z1][z3] == bot
            and meet[meet[z1][z2]][g] == bot
            and meet[meet[z2][z3]][f] == bot
            and join[join[z1][z2]][z3] == top
            for z1 in els
            for z2 in els
            for z3 in els
        ):
            out.append("HI foursome has a chicane")
    holds_, w = results["dim_le1"]
    if holds_:
        for (x0, y0, x1, y1), (u0, v0, u1, v1) in w.items():
            if not (
                meet[x0][u0] == bot
                and meet[y0][v0] == bot
                and meet[x1][u1] == bot
                and meet[y1][v1] == bot
                and join[u0][v0] == top
                and join[u1][v1] == top
                and meet[meet[meet[u0][v0]][u1]][v1] == bot
            ):
                out.append(f"dim<=1 witness {(x0, y0, x1, y1)} fails")
                break
    return out


def atoms_from_tables(L):
    return [
        a
        for a in range(L.n)
        if a != L.bottom and all(b in (L.bottom, a) or L.meet[b][a] != b for b in range(L.n))
    ]


def representation_problems(L, points, base):
    """Base masks must turn meets into intersections and joins into unions."""
    full = (1 << len(points)) - 1
    if base[L.bottom] != 0 or base[L.top] != full:
        return ["representation does not preserve the bounds"]
    for a in range(L.n):
        for b in range(L.n):
            if base[L.meet[a][b]] != base[a] & base[b] or base[L.join[a][b]] != base[a] | base[b]:
                return [f"representation is not a homomorphism at {(a, b)}"]
    return []


def closed_lattice_problems(fam, L):
    """The closed-set lattice's tables must be intersection and union."""
    idx = {m: i for i, m in enumerate(fam)}
    for i, a in enumerate(fam):
        for j, b in enumerate(fam):
            if L.meet[i][j] != idx.get(a & b) or L.join[i][j] != idx.get(a | b):
                return [f"closed-set lattice table wrong at {(i, j)}"]
    return []


def embedding_problems(B, L, emb):
    """An embedding must be injective, keep the bounds, meets and joins."""
    if sorted(emb) != list(range(B.n)) or len(set(emb.values())) != B.n:
        return ["embedding is not a total injective map"]
    if emb[B.bottom] != L.bottom or emb[B.top] != L.top:
        return ["embedding does not keep the bounds"]
    for a in range(B.n):
        for b in range(B.n):
            if emb[B.meet[a][b]] != L.meet[emb[a]][emb[b]] or emb[B.join[a][b]] != L.join[emb[a]][emb[b]]:
                return [f"embedding breaks meet or join at {(a, b)}"]
    return []


# ---------------------------------------------------------------- spaces


def _preimage(f, mask):
    out = 0
    for x, y in enumerate(f):
        if mask >> y & 1:
            out |= 1 << x
    return out


def continuous_surjection(f, X, Y):
    """f: points of X -> points of Y is onto and pulls closed sets back to closed sets."""
    return set(f) == set(range(Y.point_count)) and all(_preimage(f, c) in X.closed for c in Y.closed)


def surjection_exists(X, Y):
    """Brute force over all |Y|^|X| point maps (at most 256 here)."""
    return any(
        continuous_surjection(f, X, Y)
        for f in itertools.product(range(Y.point_count), repeat=X.point_count)
    )


# ---------------------------------------------------------------- intervals


def _member(s, q):
    return any(lo <= q <= hi for lo, hi in s.intervals)


def interval_problems(inputs, ans):
    """Re-check interval results by membership at every endpoint and the
    midpoints between them, which decides equality of closed interval sets."""
    x, y = inputs[0], inputs[1]
    lo, hi = ans["pair"]
    u, v = ans["separation"]
    diff = ans["difference"]
    sets = [x, y, lo, hi, u, v, ans["meet"], ans["join"]] + ([diff] if diff else [])
    ends = sorted({Fraction(0), Fraction(1)} | {e for s in sets for iv in s.intervals for e in iv})
    points = ends + [(a + b) / 2 for a, b in zip(ends, ends[1:])]
    out = []
    if not all(ans["laws"]):
        out.append("a lattice law failed")
    for q in points:
        inx, iny = _member(x, q), _member(y, q)
        if _member(ans["meet"], q) != (inx and iny) or _member(ans["join"], q) != (inx or iny):
            out.append(f"meet or join wrong at {q}")
        if (_member(lo, q) and _member(u, q)) or (_member(hi, q) and _member(v, q)):
            out.append(f"separation witness meets its set at {q}")
        if not (_member(u, q) or _member(v, q)):
            out.append(f"separation witness misses {q}")
        if diff and _member(diff, q) and not (inx and not iny):
            out.append(f"difference witness wrong at {q}")
    if diff is not None and not diff.intervals:
        out.append("difference witness is empty")
    if ans["refutation"][0] not in ("meet-nonempty", "join-not-top", "x-empty", "y-empty"):
        out.append("unknown partition refutation")
    return out
