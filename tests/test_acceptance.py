"""Acceptance gate: one criterion per test, one pass/fail line per criterion.

Each test prints a single summary line and pins a wall-clock bound.  The
criteria cross-validate the whole pipeline: representation duality, the
formula language against direct decision procedures, surjection search
against brute force, randomized exact arithmetic, and CLI determinism.
"""

import json
import re
import subprocess
import sys
import time
from fractions import Fraction

from wallman_lab.enumeration import lattices_of_size
from wallman_lab.ef import ef_equivalent, strategy_to_sentence
from wallman_lab.fol import (
    Theory,
    bind_constants,
    builtin_HI,
    builtin_conn,
    builtin_dim_le1,
    builtin_disjunctive,
    builtin_distributive,
    builtin_normality,
    eval_formula,
    parse,
)
from wallman_lab.homsearch import find_L_morphism, surjection_from_morphism
from wallman_lab.intervals import (
    TOP,
    disjunctive_witness,
    join,
    meet,
    normality_witness,
    refute_partition,
    riset,
)
from wallman_lab.lattice import (
    PliandFoursome,
    conn,
    enumerate_distributive,
    chicane_identities_hold,
    find_chicane,
    is_disjunctive,
    is_distributive,
    is_normal,
    lattice_isomorphism,
    satisfies_HI,
    satisfies_dim_le1,
)
from wallman_lab.modelfinder import (
    ExhaustedNoModel,
    Model,
    SearchBudget,
    find_model,
    kappa_constants_theory,
)
from wallman_lab.spaces import (
    all_spaces,
    base_restricted_HI,
    chicane_condition,
    closed_set_lattice,
    discrete_space,
    is_T1,
    space_chicane,
)
from wallman_lab.wallman import (
    alexandroff_preimage,
    canonical_hom_report,
    hausdorff_normal_report,
    self_representation_check,
    wallman_connected,
    wallman_space,
)

from oracles import oracle_surjection_equivalence
from unfiltered_search import find_model_naive


def conclude(number, name, started, bound, failures):
    elapsed = time.monotonic() - started
    verdict = "PASS" if not failures and elapsed < bound else "FAIL"
    print(f"[criterion {number}] {name}: {verdict} ({elapsed:.1f}s, bound {bound}s)")
    assert not failures, failures[:5]
    assert elapsed < bound, f"criterion {number} exceeded {bound}s ({elapsed:.1f}s)"


def test_criterion_1_representation_duality_sweep():
    started = time.monotonic()
    failures = []
    for L in enumerate_distributive(6):
        W = wallman_space(L)
        for a in L.elements():
            for b in L.elements():
                if W.base[L.meet[a][b]] != W.base[a] & W.base[b]:
                    failures.append(("meet-hom", L.n, a, b))
                if W.base[L.join[a][b]] != W.base[a] | W.base[b]:
                    failures.append(("join-hom", L.n, a, b))
        report = canonical_hom_report(L)
        if not report["agree"]:
            failures.append(("injectivity-vs-disjunctivity", L.n, report))
        hn = hausdorff_normal_report(L)
        if hn["L_normal"] and not hn["wL_hausdorff"]:
            failures.append(("normal-but-not-hausdorff", L.n, hn))
    conclude(1, "representation duality on distributive lattices to size 6", started, 60, failures)


def test_criterion_2_formula_language_matches_direct_procedures():
    started = time.monotonic()
    failures = []
    checks = [
        (builtin_normality(), lambda L: is_normal(L)[0]),
        (builtin_conn(), lambda L: conn(L, L.top)[0]),
        (builtin_HI(), lambda L: satisfies_HI(L)[0]),
        (builtin_dim_le1(), lambda L: satisfies_dim_le1(L)[0]),
        (builtin_distributive(), lambda L: is_distributive(L)[0]),
        (builtin_disjunctive(), lambda L: is_disjunctive(L)[0]),
    ]
    for L in enumerate_distributive(5):
        for sentence, direct in checks:
            if eval_formula(L, sentence) != direct(L):
                failures.append(("builtin-mismatch", L.n, sentence))
    for L in enumerate_distributive(6):
        if is_disjunctive(L)[0] and conn(L, L.top)[0] != wallman_connected(L):
            failures.append(("connectedness-transfer", L.n))
    conclude(2, "formula evaluation vs direct decision procedures", started, 60, failures)


def test_criterion_3_surjection_search_vs_brute_force():
    started = time.monotonic()
    failures = []
    for nx in range(1, 5):
        for ny in range(1, 5):
            X, Y = discrete_space(nx), discrete_space(ny)
            r = oracle_surjection_equivalence(X, Y)
            if not r["agree"]:
                failures.append(("oracle-disagrees", nx, ny, r))
            if r["oracle"] != (ny <= nx):
                failures.append(("wrong-verdict", nx, ny, r))
            morphism = find_L_morphism(Y, Y.closed_sorted(), X)
            if (morphism is not None) != r["morphism"]:
                failures.append(("search-inconsistent", nx, ny))
            if morphism is not None:
                f, verification = surjection_from_morphism(Y, morphism, X)
                if not all(verification.values()):
                    failures.append(("verification", nx, ny, verification))
    conclude(3, "base-morphism surjections vs exhaustive map search", started, 300, failures)


def test_criterion_4_self_representation_and_randomized_preimages(rng):
    started = time.monotonic()
    failures = []
    for n in range(1, 6):
        ok, diag = self_representation_check(discrete_space(n))
        if not ok:
            failures.append(("self-representation", n, diag))
    instances = 0
    while instances < 120:
        n = rng.randint(1, 4)
        X = discrete_space(n)
        family = [1 << p for p in range(n)]
        for _ in range(rng.randint(0, 3)):
            family.append(rng.randrange(1 << n))
        Y, f = alexandroff_preimage(X, family)
        if Y.point_count != n or sorted(f) != list(range(n)):
            failures.append(("not-a-bijection", n, family, f))
        instances += 1
    conclude(
        4,
        f"self-representation to size 5 and {instances} randomized point-preimage instances",
        started,
        60,
        failures,
    )


def test_criterion_5_game_equivalence_matches_isomorphism():
    started = time.monotonic()
    failures = []
    small = lattices_of_size(2) + lattices_of_size(3) + lattices_of_size(4)
    for i, A in enumerate(small):
        for B in small[i:]:
            rounds = A.n + B.n
            equivalent, strategy = ef_equivalent(A, B, rounds)
            isomorphic = lattice_isomorphism(A, B) is not None
            if equivalent != isomorphic:
                failures.append(("game-vs-isomorphism", A.n, B.n))
            if not equivalent:
                sentence = strategy_to_sentence(A, B, strategy)
                if not (eval_formula(A, sentence) and not eval_formula(B, sentence)):
                    failures.append(("separating-sentence", A.n, B.n))
    conclude(5, "pebble-game equivalence iff isomorphism, with checked separators", started, 120, failures)


def _random_theory(rng):
    ground = [
        ("a ^ b = 0", ("a", "b")),
        ("a v b = 1", ("a", "b")),
        ("!(a = 0)", ("a",)),
        ("!(a = 1)", ("a",)),
        ("!(b = 0)", ("b",)),
        ("a <= b", ("a", "b")),
        ("!(a = b)", ("a", "b")),
    ]
    closed = [
        builtin_conn(),
        builtin_distributive(),
        builtin_disjunctive(),
        parse("E x. (!(x = 0) & !(x = 1))"),
        parse("A x. (x = 0 | x = 1)"),
    ]
    constants = set()
    sentences = []
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.5:
            text, used = ground[rng.randrange(len(ground))]
            constants.update(used)
            sentences.append(text)
        else:
            sentences.append(closed[rng.randrange(len(closed))])
    names = tuple(sorted(constants))
    resolved = tuple(
        bind_constants(parse(s), names) if isinstance(s, str) else s for s in sentences
    )
    return Theory(names, resolved)


def test_criterion_6_model_search_vs_naive_oracle_and_bounds(rng):
    started = time.monotonic()
    failures = []
    for i in range(100):
        theory = _random_theory(rng)
        result = find_model(theory, SearchBudget(max_size=4))
        has_model = isinstance(result, Model)
        if has_model != find_model_naive(theory, 4):
            failures.append(("oracle-disagrees", i, theory))
        if has_model:
            for s in theory.sentences:
                if not eval_formula(result.lattice, s, result.interpretation):
                    failures.append(("model-fails-reverification", i))
    witness = find_model(
        kappa_constants_theory(2),
        SearchBudget(max_size=10, node_limit=10**9, time_limit=290),
    )
    if not (isinstance(witness, Model) and witness.lattice.n == 10):
        failures.append(("two-pair-witness", witness))
    theory = kappa_constants_theory(2)
    bad = Theory(
        theory.constants,
        theory.sentences + (parse("a1 = b1"),),
    )
    bad = Theory(bad.constants, tuple(bind_constants(s, bad.constants) for s in bad.sentences))
    if find_model(bad, SearchBudget(max_size=7)) != ExhaustedNoModel(7):
        failures.append(("inconsistent-variant-not-exhausted",))
    conclude(6, "bounded model search vs naive oracle, witness and refutation", started, 300, failures)


def test_criterion_7_crookedness_space_vs_lattice():
    started = time.monotonic()
    failures = []
    # canonical witness on the 4-point discrete space
    X = discrete_space(4)
    c, d = 0b0001, 0b1000
    for f in X.closed_sorted():
        if f & c:
            continue
        for g in X.closed_sorted():
            if g & d:
                continue
            triple = space_chicane(X, c, d, f, g)
            if triple != (c, X.full & ~(c | d), d):
                failures.append(("canonical-witness", f, g, triple))
    # per-foursome agreement between the space search and the lattice search
    spaces = all_spaces(1) + all_spaces(2) + all_spaces(3) + all_spaces(4)
    for X in spaces:
        fam = X.closed_sorted()
        L = closed_set_lattice(X)
        whole = chicane_condition(X)[0]
        if whole != satisfies_HI(L)[0]:
            failures.append(("holistic-disagreement", X.point_count))
        for ci, cm in enumerate(fam):
            for di, dm in enumerate(fam):
                if cm & dm:
                    continue
                for fi, fm in enumerate(fam):
                    if cm & fm:
                        continue
                    for gi, gm in enumerate(fam):
                        if dm & gm:
                            continue
                        by_space = space_chicane(X, cm, dm, fm, gm, fam)
                        fs = PliandFoursome(ci, di, fi, gi)
                        by_lattice = find_chicane(L, fs)
                        if (by_space is None) != (by_lattice is None):
                            failures.append(("foursome-disagreement", X.point_count, fs))
                        elif by_lattice is not None and not chicane_identities_hold(
                            L, fs, by_lattice
                        ):
                            failures.append(("bad-lattice-witness", X.point_count, fs))
        if is_T1(X) and X.point_count >= 2:
            coatoms = [X.full & ~(1 << p) for p in range(X.point_count)]
            base = {X.full, 0}
            frontier = list(coatoms)
            base.update(frontier)
            for a in list(base):
                for b in list(base):
                    base.add(a & b)
            restricted = base_restricted_HI(X, sorted(base))[0]
            if restricted != whole:
                failures.append(("base-restriction-changed-verdict", X.point_count))
    conclude(7, "crookedness witnesses: point-set search vs algebraic search", started, 120, failures)


def _random_riset(rng):
    pairs = []
    for _ in range(rng.randint(0, 3)):
        a = Fraction(rng.randint(0, 24), 24)
        b = Fraction(rng.randint(0, 24), 24)
        pairs.append((min(a, b), max(a, b)))
    return riset(*pairs)


def test_criterion_8_exact_interval_arithmetic(rng):
    started = time.monotonic()
    failures = []
    checks = 0
    while checks < 10_000:
        x, y, z = (_random_riset(rng) for _ in range(3))
        cases = [
            meet(x, y) == meet(y, x),
            join(x, y) == join(y, x),
            meet(x, meet(y, z)) == meet(meet(x, y), z),
            join(x, join(y, z)) == join(join(x, y), z),
            meet(x, join(x, y)) == x,
            join(x, meet(x, y)) == x,
            meet(x, join(y, z)) == join(meet(x, y), meet(x, z)),
            join(x, meet(y, z)) == meet(join(x, y), join(x, z)),
        ]
        if not all(cases):
            failures.append(("lattice-law", x, y, z, cases))
        checks += len(cases)
        # separation witness on a disjoint pair carved from x and y
        cut = Fraction(rng.randint(1, 23), 24)
        lo = meet(x, riset((0, cut - Fraction(1, 48))))
        hi = meet(y, riset((cut + Fraction(1, 48), 1)))
        u, v = normality_witness(lo, hi)
        if not (meet(lo, u).is_empty() and meet(hi, v).is_empty() and join(u, v) == TOP):
            failures.append(("separation", lo, hi))
        checks += 3
        if meet(x, y) != x and not x.is_empty():
            cpart = disjunctive_witness(x, y)
            if cpart.is_empty() or meet(cpart, x) != cpart or not meet(cpart, y).is_empty():
                failures.append(("difference-witness", x, y, cpart))
            checks += 3
        reason, _evidence = refute_partition(lo, hi)
        if reason not in ("meet-nonempty", "join-not-top", "x-empty", "y-empty"):
            failures.append(("partition-refuter", lo, hi, reason))
        checks += 1
    conclude(8, f"{checks} randomized exact-arithmetic interval checks", started, 60, failures)


def test_criterion_9_cli_reports_are_deterministic(tmp_path):
    started = time.monotonic()
    failures = []
    lattice = tmp_path / "ba4.json"
    lattice.write_text(
        json.dumps(
            {
                "elements": ["bot", "a", "b", "top"],
                "meet": [[0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 2, 2], [0, 1, 2, 3]],
                "join": [[0, 1, 2, 3], [1, 1, 3, 3], [2, 3, 2, 3], [3, 3, 3, 3]],
                "bottom": 0,
                "top": 3,
            }
        )
    )

    def run(*args):
        proc = subprocess.run(
            [sys.executable, "-m", "wallman_lab", *args],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            failures.append(("exit", args, proc.returncode, proc.stderr))
        return re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', proc.stdout)

    for args in (
        ("check", str(lattice)),
        ("wallman", str(lattice)),
        ("eval", str(lattice), "A x. x ^ 1 = x"),
        ("embed", str(lattice), str(lattice)),
    ):
        outputs = {run(*args) for _ in range(3)}
        if len(outputs) != 1:
            failures.append(("run-to-run", args))
    serial = run("--jobs", "1", "check", str(lattice))
    parallel = run("--jobs", "4", "check", str(lattice))
    strip = lambda text: re.sub(r'"command": \[[^\]]*\]', '"command": []', text)
    if strip(serial) != strip(parallel):
        failures.append(("jobs-sensitivity",))
    conclude(9, "byte-identical CLI reports across runs and worker counts", started, 120, failures)
