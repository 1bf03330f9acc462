"""Batch front end: JSON in, JSON reports out, optional DOT graphs.

Exit codes: 0 success, 1 assertion failure (--assert), 2 input error,
3 internal error (a failed self-check or any other escaping exception),
141 standard output closed before the report was written (`... | head`),
the status a shell gives a process that SIGPIPE ends; nothing is printed.
Reports are deterministic for fixed inputs; the elapsed_ms field is the only
run-dependent part and tests mask it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

from . import __version__
from .errors import PostconditionFailed, WallmanLabError
from .lattice import (
    Poset,
    _bits,
    _masks,
    conn,
    dim_le1_holds,
    downset_lattice,
    is_disjunctive,
    is_distributive,
    is_normal,
    satisfies_HI,
    satisfies_dim_le1,
    validate,
)

EXIT_OK = 0
EXIT_ASSERT = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3
EXIT_PIPE = 141
# The most elements a lattice given as a poset may have: its down-sets, of
# which an n-element poset has from n + 1 (a chain) to 2^n (an antichain).
MAX_DOWNSETS = 1024
# The most entries `check` writes of a `dim_le1` witness map, one per pair of
# disjoint pairs: 9^k on 2^k, so 59,049 on 2^5 and 531,441 on 2^6.  A larger
# map that holds is reported by its entry count alone.
MAX_WITNESS_ENTRIES = 100_000


class InputError(WallmanLabError):
    pass


# ---------------------------------------------------------------- loading


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as err:
        # ValueError: not UTF-8, bad JSON, or an integer past int()'s digit limit
        raise InputError(f"{path}: {err}")


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _index(value, bound, what):
    """value if it is an int in 0..bound-1 (any non-negative int when bound is None)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise InputError(f"{what} must be a non-negative integer, not {value!r}")
    if bound is not None and value >= bound:
        raise InputError(f"{what} {value} is out of range 0..{bound - 1}")
    return value


def _strings(value, what):
    """value if it is a JSON list of strings."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise InputError(f"{what} must be a list of strings, not {value!r}")
    return value


def _names(value, what):
    """value as a tuple if it is a JSON list of distinct strings."""
    seen = set()
    for v in _strings(value, what):
        if v in seen:
            raise InputError(f"{what} repeats the name {v!r}")
        seen.add(v)
    return tuple(value)


def load_lattice(path):
    data = _read_json(path)
    try:
        if "poset" in data:
            p = data["poset"]
            size = _index(p["size"], MAX_DOWNSETS, "poset size")
            down = [1 << j for j in range(size)]  # down[j] has bit i when i <= j
            for i, j in p["le"]:
                i, j = _index(i, size, "poset index"), _index(j, size, "poset index")
                down[j] |= 1 << i
            # reflexive-transitive closure of the listed relations
            for k in range(size):
                for j in range(size):
                    if down[j] >> k & 1:
                        down[j] |= down[k]
            return downset_lattice(Poset(tuple(down)), MAX_DOWNSETS)
        return validate(
            _names(data["elements"], "elements"),
            tuple(tuple(r) for r in data["meet"]),
            tuple(tuple(r) for r in data["join"]),
            data["bottom"],
            data["top"],
        )
    except (KeyError, TypeError, IndexError, ValueError) as err:
        raise InputError(f"{path}: malformed lattice JSON ({err})")
    except WallmanLabError as err:
        raise InputError(f"{path}: {err}")


def load_space(path):
    from .spaces import space_from_sets

    data = _read_json(path)
    try:
        points = _index(data["points"], None, "points")
        closed = [[_index(p, points, "closed-set point") for p in s] for s in data["closed"]]
        return space_from_sets(points, closed)
    except (KeyError, TypeError, ValueError) as err:
        raise InputError(f"{path}: malformed space JSON ({err})")
    except WallmanLabError as err:
        raise InputError(f"{path}: {err}")


def load_theory(path):
    from .fol import Theory, bind_constants, parse

    data = _read_json(path)
    try:
        constants = _names(data["constants"], "constants")
        sentences = tuple(
            bind_constants(parse(text), constants) for text in _strings(data["sentences"], "sentences")
        )
        return Theory(constants, sentences)
    except (KeyError, TypeError) as err:
        raise InputError(f"{path}: malformed theory JSON ({err})")
    except RecursionError:
        raise InputError(f"{path}: a sentence nests too deeply to parse")
    except WallmanLabError as err:
        raise InputError(f"{path}: {err}")


# ---------------------------------------------------------------- DOT


def _dot_quoted(text):
    """text as a DOT string: in quotes, with each backslash and quote escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def hasse_dot(L):
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for i, name in enumerate(L.names):
        lines.append(f"  n{i} [label={_dot_quoted(name)}];")
    _, _, down, up = _masks(L)
    for a, ua in enumerate(up):
        for b in _bits(ua):
            if (ua & down[b]).bit_count() == 2:  # b covers a: the interval [a, b] is {a, b}
                lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def wallman_dot(W):
    lines = ["graph wallman {"]
    for i, u in enumerate(W.points):
        label = ",".join(W.lattice.name(a) for a in sorted(u.members))
        lines.append(f"  p{i} [label={_dot_quoted('{' + label + '}')}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- reports


def _emit(report):
    """Write the report in one piece (json.dump writes thousands of small
    ones).  Under python -u the bytes go to the file unbuffered, and a write
    that a closing reader cuts short is not retried by the text layer, so
    the rest is written here: that write fails with BrokenPipeError."""
    rest = memoryview((json.dumps(report, indent=2, sort_keys=True) + "\n").encode())
    sys.stdout.flush()
    while rest:
        rest = rest[sys.stdout.buffer.write(rest) :]


def _finish(args, paths, outcome, holds=True):
    """Write the command's report on its input files, in path order, timed
    from args.started, and return its exit status: EXIT_ASSERT when --assert
    was given and the outcome does not hold."""
    _emit(
        {
            "command": sys.argv[1:],
            "inputs": {path: _digest(path) for path in paths},
            "outcome": outcome,
            "elapsed_ms": int((time.monotonic() - args.started) * 1000),
            "version": __version__,
        }
    )
    return EXIT_ASSERT if not holds and args.assert_ else EXIT_OK


# ---------------------------------------------------------------- commands

_PREDICATES = {
    "distributive": is_distributive,
    "disjunctive": is_disjunctive,
    "normal": is_normal,
    "connected": lambda L: conn(L, L.top),
    "hi": satisfies_HI,
    "dim_le1": satisfies_dim_le1,
}


def _witness_json(w):
    if w is None:
        return None
    if isinstance(w, dict):
        return {str(k): list(v) if isinstance(v, tuple) else v for k, v in w.items()}
    if isinstance(w, tuple):
        return list(w)
    return dict(w.__dict__)  # a PliandFoursome, the one other witness the six predicates return


def cmd_check(args):
    L = load_lattice(args.lattice)
    names = args.predicates or sorted(_PREDICATES)
    for nm in names:
        if nm not in _PREDICATES:
            raise InputError(f"unknown predicate {nm!r}")

    outcome = {}
    for nm in names:
        if nm == "dim_le1":
            entries = sum(m.bit_count() for m in _masks(L)[0]) ** 2
            # a failure is returned before any map is built, so only a holding map is cut
            if entries > MAX_WITNESS_ENTRIES and dim_le1_holds(L):
                outcome[nm] = {"holds": True, "witness": None, "witness_entries": entries}
                continue
        verdict, witness = _PREDICATES[nm](L)
        outcome[nm] = {"holds": verdict, "witness": _witness_json(witness)}
    return _finish(args, [args.lattice], outcome, all(p["holds"] for p in outcome.values()))


def cmd_wallman(args, stone=False):
    from .spaces import points_of
    from .wallman import stone_space, wallman_space

    L = load_lattice(args.lattice)
    W = stone_space(L) if stone else wallman_space(L)
    outcome = {
        "points": [sorted(u.members) for u in W.points],
        "base": {L.name(a): points_of(W.base[a]) for a in L.elements()},
    }
    if args.dot:
        try:
            with open(args.dot, "w") as fh:
                fh.write(hasse_dot(L))
                fh.write(wallman_dot(W))
        except OSError as err:
            raise InputError(f"{args.dot}: {err}")
    return _finish(args, [args.lattice], outcome)


def cmd_eval(args):
    from .fol import eval_formula, parse

    L = load_lattice(args.structure)
    try:
        formula = parse(args.formula)
    except RecursionError:
        raise InputError("the formula nests too deeply to parse")
    interp = {}
    for item in args.let:
        name, _, value = item.partition("=")
        if not name or name in interp:
            raise InputError(f"--let {item}: the name must be non-empty and given once")
        try:
            index = int(value) if value.isdecimal() else L.n
        except ValueError:  # more digits than int() converts
            index = L.n
        if index >= L.n:
            raise InputError(f"--let {item}: the value must be an element index in 0..{L.n - 1}")
        interp[name] = index
    value = eval_formula(L, formula, interp)
    return _finish(args, [args.structure], {"value": value}, value)


def cmd_ef(args):
    from .ef import ef_equivalent, strategy_to_sentence
    from .fol import print_formula

    if args.rounds < 0:
        raise InputError(f"--rounds must be non-negative, not {args.rounds}")
    A = load_lattice(args.a)
    B = load_lattice(args.b)
    equivalent, strategy = ef_equivalent(A, B, args.rounds)
    outcome = {"equivalent": equivalent, "rounds": args.rounds}
    if not equivalent:
        outcome["separating_sentence"] = print_formula(strategy_to_sentence(A, B, strategy))
    return _finish(args, [args.a, args.b], outcome, equivalent)


def cmd_find_model(args):
    from .modelfinder import Model, SearchBudget, find_model

    theory = load_theory(args.theory)
    try:
        budget = SearchBudget(max_size=args.max_size)
    except ValueError as err:
        raise InputError(str(err))
    result = find_model(theory, budget)
    if isinstance(result, Model):
        L = result.lattice
        outcome = {
            "result": "model",
            "size": L.n,
            "elements": list(L.names),
            "meet": [list(r) for r in L.meet],
            "join": [list(r) for r in L.join],
            "bottom": L.bottom,
            "top": L.top,
            "interpretation": dict(sorted(result.interpretation.items())),
        }
    else:
        outcome = {"result": type(result).__name__}
    return _finish(args, [args.theory], outcome, isinstance(result, Model))


def cmd_surject(args):
    from .homsearch import find_L_morphism, surjection_from_morphism
    from .spaces import is_T1, points_of

    X = load_space(args.x)
    Y = load_space(args.y)
    if not is_T1(Y):
        # the point map of a morphism is defined only when every point of Y is closed
        raise InputError(f"{args.y}: surject needs a T1 target space (every point closed)")
    morphism = find_L_morphism(Y, Y.closed_sorted(), X)
    if morphism is None:
        outcome = {"found": False}
    else:
        f, verification = surjection_from_morphism(Y, morphism, X)
        outcome = {
            "found": True,
            "map": f,
            "morphism": {
                str(points_of(b)): points_of(m) for b, m in sorted(morphism.assignment.items())
            },
            **verification,
        }
    return _finish(args, [args.x, args.y], outcome, morphism is not None)


def cmd_embed(args):
    from .homsearch import find_lattice_embedding

    B = load_lattice(args.b)
    L = load_lattice(args.l)
    emb = find_lattice_embedding(B, L)
    if emb is None:
        outcome = {"found": False}
    else:
        outcome = {
            "found": True,
            "assignment": {B.name(e): L.name(t) for e, t in sorted(emb.items())},
        }
    return _finish(args, [args.b, args.l], outcome, emb is not None)


# ---------------------------------------------------------------- driver


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wallman-lab",
        description="finite lattices, their ultrafilter spaces, and the first-order lattice language",
    )
    parser.add_argument("--jobs", type=int, default=1, help="accepted; reports never depend on it")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="evaluate lattice predicates")
    p.add_argument("lattice")
    p.add_argument("--predicates", nargs="*", metavar="NAME")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("wallman", help="ultrafilter space of a distributive lattice")
    p.add_argument("lattice")
    p.add_argument("--dot", metavar="FILE")
    p.set_defaults(fn=cmd_wallman)

    p = sub.add_parser("stone", help="ultrafilter space of a Boolean algebra")
    p.add_argument("lattice")
    p.add_argument("--dot", metavar="FILE")
    p.set_defaults(fn=lambda a: cmd_wallman(a, stone=True))

    p = sub.add_parser("eval", help="evaluate a formula on a lattice")
    p.add_argument("structure")
    p.add_argument("formula")
    p.add_argument("--let", action="append", default=[], metavar="NAME=INDEX")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("ef", help="pebble-game equivalence of two lattices")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--rounds", type=int, default=3)
    p.set_defaults(fn=cmd_ef)

    p = sub.add_parser("find-model", help="bounded model search for a theory")
    p.add_argument("theory")
    p.add_argument("--max-size", type=int, default=8)
    p.set_defaults(fn=cmd_find_model)

    p = sub.add_parser("surject", help="continuous surjection X onto Y via a base morphism")
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(fn=cmd_surject)

    p = sub.add_parser("embed", help="bounded-lattice embedding search")
    p.add_argument("b")
    p.add_argument("l")
    p.set_defaults(fn=cmd_embed)

    for command in ("check", "eval", "ef", "find-model", "surject", "embed"):
        sub.choices[command].add_argument("--assert", dest="assert_", action="store_true")
    return parser


def quiet_on_closed_pipe(fn, *args):
    """fn(*args) with stdout flushed after it, or EXIT_PIPE when the reader
    of stdout stopped early (`... | head`), which is not a bug."""
    try:
        status = fn(*args)
        sys.stdout.flush()  # a closed pipe shows here, not at shutdown
        return status
    except BrokenPipeError:
        # Point stdout at the null device so that the flush at shutdown does
        # not fail again.
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        return EXIT_PIPE


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    args.started = time.monotonic()  # elapsed_ms counts from here
    try:
        return quiet_on_closed_pipe(args.fn, args)
    except InputError as err:
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as err:
        if isinstance(err, WallmanLabError) and not isinstance(err, PostconditionFailed):
            print(f"input error: {type(err).__name__}: {err}", file=sys.stderr)
            return EXIT_INPUT
        # a failed self-check, like any other escaping exception, is a bug, not bad input
        message = " ".join(str(err).splitlines())
        print(f"internal error: {type(err).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
