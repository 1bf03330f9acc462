"""Host speed meter: reference work timed alongside the queries.

On a shared 2-core host the same pure-Python work runs up to twice as slow
for stretches of ten seconds to a minute, so a sum of query times over a
20 s run moves by a quarter from run to run whatever the program does.  A
small loop of integer arithmetic does not slow with it; interpreter-heavy
work on lattice tables does.  So the meter runs such work on a thread of
the pass's own process: every PERIOD_S it takes the interpreter lock,
evaluates a few lattice sentences with a tuple-based evaluator defined here
(independent of the package), and records when that slice started and
ended and the CPU time it took.

A pass's query time over the mean slice time, times the nominal slice time
REF_SLICE_S, is the query time at the host's nominal speed.  Over 200 s on
the VM described at REF_SLICE_S, the mean time of 0.4 s rounds of package
work, taken per 20 s window, spread by 0.226 (quartile distance over
median) as measured and by 0.011 so scaled.  The slices that ran inside a
query held the lock that query needed, so they are taken out of its time
(see `inside`).  Queries that run in processes of their own (the CLI) are
scaled instead by the start time of a bare interpreter (see `launch`).
"""


from __future__ import annotations

import bisect
import math
import subprocess
import sys
import threading
import time

PERIOD_S = 0.02  # wait between slices
# Typical mean slice CPU time and mean launch time (see HostMeter.launch)
# during a pass on a 2-core x86-64 VM (Xeon, 2.1 GHz) under CPython 3.11.
# Constants: they only set the unit of the scaled times.
REF_SLICE_S = 0.002
REF_LAUNCH_S = 0.07


def _from_order(n, le):
    """Meet and join tables of a lattice on 0..n-1 given by its order relation."""
    def bound(a, b, pick):
        common = [c for c in range(n) if pick(c, a) and pick(c, b)]
        return next(c for c in common if all(pick(d, c) for d in common))

    below = lambda c, a: le[c][a]
    above = lambda c, a: le[a][c]
    return n, [[bound(a, b, below) for b in range(n)] for a in range(n)], [[bound(a, b, above) for b in range(n)] for a in range(n)]


def _order(n, covers):
    le = [[a == b for b in range(n)] for a in range(n)]
    for a, b in covers:
        le[a][b] = True
    for k in range(n):  # transitive closure
        for a in range(n):
            for b in range(n):
                le[a][b] = le[a][b] or (le[a][k] and le[k][b])
    return le


# Lattices with bottom 0 and top n-1: N5, M3 and a 6-chain.
LATTICES = (
    _from_order(5, _order(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])),
    _from_order(5, _order(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])),
    _from_order(6, _order(6, [(i, i + 1) for i in range(5)])),
)

# Sentences as nested tuples; a term is a variable name, "0", "1", or
# ("meet" | "join", term, term).
DISTRIBUTIVE = ("all", "x", ("all", "y", ("all", "z", ("eq", ("meet", "x", ("join", "y", "z")), ("join", ("meet", "x", "y"), ("meet", "x", "z"))))))
COMPLEMENTED = ("all", "x", ("any", "y", ("and", ("eq", ("meet", "x", "y"), "0"), ("eq", ("join", "x", "y"), "1"))))
MODULAR = ("all", "x", ("all", "y", ("all", "z", ("or", ("not", ("eq", ("meet", "x", "z"), "x")), ("eq", ("join", "x", ("meet", "y", "z")), ("meet", ("join", "x", "y"), "z"))))))
SENTENCES = (DISTRIBUTIVE, COMPLEMENTED, MODULAR)


def _term(L, t, env):
    if isinstance(t, str):
        if t == "0":
            return 0
        if t == "1":
            return L[0] - 1
        return env[t]
    table = L[1] if t[0] == "meet" else L[2]
    return table[_term(L, t[1], env)][_term(L, t[2], env)]


def holds(L, f, env):
    op = f[0]
    if op == "eq":
        return _term(L, f[1], env) == _term(L, f[2], env)
    if op == "not":
        return not holds(L, f[1], env)
    if op == "and":
        return holds(L, f[1], env) and holds(L, f[2], env)
    if op == "or":
        return holds(L, f[1], env) or holds(L, f[2], env)
    test = all if op == "all" else any
    return test(holds(L, f[2], {**env, f[1]: a}) for a in range(L[0]))


def reference_slice():
    """Every sentence on every lattice: about 1.4 ms."""
    return [holds(L, f, {}) for L in LATTICES for f in SENTENCES]


class HostMeter:
    """Runs reference slices on a thread while it is entered."""

    def __init__(self):
        self.starts, self.ends, self.cpu = [], [], []
        self.launches = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _slice(self):
        start, cpu = time.perf_counter(), time.thread_time()
        reference_slice()
        cpu, end = time.thread_time() - cpu, time.perf_counter()
        self.cpu.append(cpu)
        self.starts.append(start)
        self.ends.append(end)

    def _run(self):
        while not self._stop.wait(PERIOD_S):
            self._slice()

    def __enter__(self):
        self._slice()  # so that every interval has a slice to scale by
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self.stop()

    def stop(self):
        """Ends the slices; a pass whose queries run in processes of their
        own is scaled by launches instead."""
        self._stop.set()
        self._thread.join()

    def launch(self):
        """Times the start of a bare interpreter, the reference for a query
        that runs in a process of its own: as measured over 200 s of CLI
        passes, the pass times spread by 0.287 and their ratios to the
        launch times of the same passes by 0.040."""
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], capture_output=True, check=True)
        self.launches.append(time.perf_counter() - start)

    def launch_s(self):
        """Mean seconds per launch, or None before the first."""
        return math.fsum(self.launches) / len(self.launches) if self.launches else None

    def inside(self, a, b):
        """Seconds of slices that ran between perf_counter times a and b."""
        count = len(self.ends)
        lo = bisect.bisect_left(self.ends, a, 0, count)
        hi = bisect.bisect_left(self.starts, b, 0, count)
        return sum(min(e, b) - max(s, a) for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]))

    def slice_s(self, a, b):
        """Mean CPU seconds of the slices that started between perf_counter
        times a and b, or of all slices when none did.

        CPU time, not wall time: a slice that the system preempts, say for a
        CLI process the pass started, is not slower for it.  The mean, not
        the median: query time is a sum, and a slow stretch that covers a
        third of a pass slows a third of its queries."""
        count = len(self.ends)
        lo = bisect.bisect_left(self.starts, a, 0, count)
        hi = bisect.bisect_left(self.starts, b, 0, count)
        cpu = self.cpu[lo:hi] or self.cpu[:count]
        return math.fsum(cpu) / len(cpu)
