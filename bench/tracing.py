"""In-memory span tracer for the benchmark's traced runs.

The tracer replaces a program function in the module namespace where its
callers look it up (``harness.fit_lm``, ``generation.stack_step``, ...) with a
wrapper that records a span: name, start, end and the index of the enclosing
span. Functions called hundreds of thousands of times (``tokenize``) are only
counted. The interpreter's cyclic garbage collections are timed too. Spans stay
in memory until the run ends; ``unwrap_all`` restores every original function
and stops the collection timing.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass

clock = time.perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 at top level


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.results: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.gc_s = 0.0
        self.gc_full = 0  # collections of the oldest generation
        self._gc_start = 0.0

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append(Span(name, clock(), 0.0, self._stack[-1] if self._stack else -1))
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx].end = clock()
        self._stack.pop()
        self.counts[self.spans[idx].name] += 1

    def wrap(self, module, attr: str, name: str, keep_result: bool = False,
             spans: bool = True) -> None:
        """Trace every call made through ``module.attr`` under ``name``.

        keep_result stores each return value in ``results[name]``; spans=False
        only counts calls.
        """
        original = getattr(module, attr)
        counts, results = self.counts, self.results

        if spans:
            def wrapper(*args, **kwargs):
                idx = self.begin(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self.end(idx)
                if keep_result:
                    results[name].append(result)
                return result
        else:
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

        wrapper.__wrapped__ = original
        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = clock()
        else:
            self.gc_s += clock() - self._gc_start
            self.gc_full += info["generation"] == 2

    def watch_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    def unwrap_all(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # --- derived figures ---------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total_s(self, name: str) -> float:
        return sum(s.end - s.start for s in self.named(name))

    def self_s(self, name: str) -> float:
        """Time inside ``name`` spans not covered by their direct child spans."""
        ids = {i for i, s in enumerate(self.spans) if s.name == name}
        covered = sum(s.end - s.start for s in self.spans if s.parent in ids)
        return self.total_s(name) - covered

    def p50_ms(self, name: str) -> float:
        durations = [s.end - s.start for s in self.named(name)]
        return 1000.0 * statistics.median(durations) if durations else 0.0

    def dump(self, path) -> None:
        doc = {"spans": [asdict(s) for s in self.spans], "counts": dict(self.counts)}
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)


def wrapper_cost_s(n: int = 20000) -> tuple[float, float]:
    """Measured extra seconds per call of a span wrapper and a counting wrapper."""

    class Probe:
        @staticmethod
        def f():
            return None

    def per_call():
        t = clock()
        for _ in range(n):
            Probe.f()
        return (clock() - t) / n

    plain = per_call()
    costs = []
    for spans in (True, False):
        tracer = Tracer()
        tracer.wrap(Probe, "f", "probe", spans=spans)
        costs.append(max(0.0, per_call() - plain))
        tracer.unwrap_all()
    return costs[0], costs[1]
