"""Per-layer spans for the traced benchmark run.

`install()` wraps every public function of each package module (the layers)
under every name a module holds it by, including values of module-level
dicts, so `eval_formula` is traced whether `fol`, `modelfinder` or `ef`
calls it.  Each wrapped call is a span; its self time is its duration minus
the durations of the spans it caused.  Spans are aggregated in memory per
function and per (caller layer, callee) pair and written out by the caller
at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

PACKAGE = "wallman_lab"
LAYERS = (
    "lattice",
    "enumeration",
    "intervals",
    "spaces",
    "wallman",
    "fol",
    "ef",
    "homsearch",
    "modelfinder",
    "cli",
)
# Private functions that still mark a layer boundary worth a span.
EXTRA = {"cli": ("_emit",)}
# Functions whose first call per argument is timed on its own: lattices_of_size
# caches per size, so its first call for n is the cold enumeration of size n.
FIRST_CALL_PER_ARG = ("enumeration.lattices_of_size",)


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [layer, seconds spent in child spans]
        self.calls = {}  # "layer.function" -> [calls, total_s, self_s]
        self.edges = {}  # (caller layer, "layer.function") -> [calls, total_s]
        self.first = {}  # "layer.function(arg)" -> [seconds, len(result)]
        self.active = True

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside run untraced (the benchmark's own checks)."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def wrap(self, layer, name, fn):
        qual = f"{layer}.{name}"
        stats = self.calls.setdefault(qual, [0, 0.0, 0.0])
        stack, edges, clock = self.stack, self.edges, time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            caller = stack[-1][0] if stack else "bench"
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
                edge = edges.get((caller, qual))
                if edge is None:
                    edge = edges[(caller, qual)] = [0, 0.0]
                edge[0] += 1
                edge[1] += elapsed

        if qual in FIRST_CALL_PER_ARG:
            inner = traced

            def traced(arg, *args, **kwargs):
                label = f"{qual}({arg})"
                if label in self.first or not self.active:
                    return inner(arg, *args, **kwargs)
                start = clock()
                out = inner(arg, *args, **kwargs)
                self.first[label] = [clock() - start, len(out)]
                return out

        return functools.wraps(fn)(traced)

    def snapshot(self):
        return {
            "calls": {k: list(v) for k, v in self.calls.items()},
            "edges": {f"{c}>{q}": list(v) for (c, q), v in self.edges.items()},
            "first": {k: list(v) for k, v in self.first.items()},
        }


def _traceable(module, name, obj):
    if name.startswith("_") and name not in EXTRA.get(module.__name__.rsplit(".", 1)[1], ()):
        return False
    return callable(obj) and not isinstance(obj, type) and getattr(obj, "__module__", None) == module.__name__


def install():
    """Wrap the package's layers in place and return the Tracer that records them."""
    modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
    tracer = Tracer()
    wrappers = {}  # id(original) -> (original, wrapper)
    for layer, module in modules.items():
        for name, obj in list(vars(module).items()):
            if _traceable(module, name, obj):
                wrappers[id(obj)] = (obj, tracer.wrap(layer, name, obj))

    def wrapped(obj):
        hit = wrappers.get(id(obj))
        return hit[1] if hit is not None and hit[0] is obj else None

    for module in modules.values():
        for name, obj in list(vars(module).items()):
            if wrapped(obj) is not None:
                setattr(module, name, wrapped(obj))
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if wrapped(value) is not None:
                        obj[key] = wrapped(value)
    return tracer


def difference(after, before):
    """Counts and times accumulated between two snapshots."""

    def sub(a, b):
        return {k: [x - y for x, y in zip(v, b.get(k, [0] * len(v)))] for k, v in a.items()}

    return {
        "calls": sub(after["calls"], before["calls"]),
        "edges": sub(after["edges"], before["edges"]),
        "first": {k: v for k, v in after["first"].items() if k not in before["first"]},
    }
