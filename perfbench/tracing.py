"""In-memory spans recorded around calls into the dfsdca modules, and a
traced replay of ``solver.run``'s loop.

Spans are kept in parallel lists (name, start, end, parent) and written out
once, when the benchmark ends. A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import math
from collections import defaultdict
from time import perf_counter

import numpy as np

from dfsdca import init_state, primal_value, step
from dfsdca.diagnostics import potentials
from dfsdca.solver import relation_residual, resolve_theta, resync


class Tracer:
    """Spans of one benchmark process. ``begin`` returns the span's index,
    which ``end`` closes; spans opened in between become its children."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(math.nan)
        self._open.append(idx)
        self.starts.append(perf_counter())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        if self._open.pop() != idx:
            raise RuntimeError(f"span {self.names[idx]!r} closed out of order")

    def aggregate(self, first: int = 0) -> dict[str, dict[str, float]]:
        """Count, total and self seconds per span name, over spans
        ``first`` onwards."""
        child = defaultdict(float)
        for i in range(first, len(self.names)):
            if self.parents[i] >= first:
                child[self.parents[i]] += self.ends[i] - self.starts[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(first, len(self.names)):
            dur = self.ends[i] - self.starts[i]
            agg = out.setdefault(self.names[i], {"count": 0, "total": 0.0, "self": 0.0})
            agg["count"] += 1
            agg["total"] += dur
            agg["self"] += dur - child[i]
        return out

    def write(self, path, end: int) -> None:
        """Spans before index ``end``, one line each: index, parent, name,
        start and end in seconds relative to the first span."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as fh:
            fh.write("index,parent,name,start_s,end_s\n")
            for i, name in enumerate(self.names[:end]):
                fh.write(f"{i},{self.parents[i]},{name},"
                         f"{self.starts[i] - t0:.9f},{self.ends[i] - t0:.9f}\n")


class NullTracer(Tracer):
    """Tracing off: the same calls, recording nothing."""

    def begin(self, name: str) -> int:
        return -1

    def end(self, idx: int) -> None:
        pass


def replay(problem, scheme, epochs: int, seed: int, reference, tracer: Tracer):
    """Re-run ``solver.run``'s loop through the same public calls, in the
    same order and with the same seed, with a span around each call.

    Must be given a freshly built scheme: schemes keep a mutable permutation
    buffer, so a reused instance draws different subsets. Returns the final
    state and the drawn subsets (for counting examples and nonzeros after
    the timed loop).
    """
    theta = resolve_theta(problem, scheme, "auto-convex")
    n = problem.dataset.n
    e_size = scheme.expected_size
    total = math.ceil(epochs * n / e_size)
    trace_every = max(1, round(n / e_size))
    rng = np.random.default_rng(seed)
    state = init_state(problem)
    subsets = []
    tr = tracer

    def checkpoint():
        c = tr.begin("solver.checkpoint")
        i = tr.begin("solver.primal_value")
        primal_value(problem, state.w)
        tr.end(i)
        i = tr.begin("solver.relation_residual")
        relation_residual(problem, state)
        tr.end(i)
        i = tr.begin("diagnostics.potentials")
        potentials(state, reference, problem.smoothness, problem.lam)
        tr.end(i)
        tr.end(c)

    root = tr.begin("solver.run")
    checkpoint()
    for t in range(1, total + 1):
        i = tr.begin("sampling.draw")
        subset = scheme.draw(rng)
        tr.end(i)
        i = tr.begin("solver.step")
        step(problem, state, subset, scheme.p, theta)
        tr.end(i)
        subsets.append(subset)
        if t % n == 0:
            i = tr.begin("solver.resync")
            resync(problem, state)
            tr.end(i)
        if t % trace_every == 0 or t == total:
            checkpoint()
    tr.end(root)
    return state, subsets
