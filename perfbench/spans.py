"""Spans and exact counts recorded around the benchmark's calls into the library.

A span is (name, start, end, parent, op): the layer call it times, the span
it ran inside, and the op it belongs to (-1 for set-up).  Spans stay in
memory until the run ends.  With tracing off, `span` hands back one shared
no-op context, so an untraced run pays one call per library call.

Counts are always kept: they are the exact, deterministic figures a run
prints for comparison across runs and commits.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import nullcontext

_NULL = nullcontext()


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        stack = tracer.stack
        self.index = len(tracer.spans)
        tracer.spans.append([name, 0.0, 0.0, stack[-1] if stack else None, tracer.op])

    def __enter__(self):
        self.tracer.stack.append(self.index)
        self.tracer.spans[self.index][1] = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        rec = self.tracer.spans[self.index]
        rec[2] = time.perf_counter()
        self.tracer.stack.pop()
        if exc_type is not None:
            self.tracer.counts[rec[0].split(".", 1)[0] + ".errors"] += 1
        return False


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: Counter = Counter()

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def peak(self, name: str, n: int) -> None:
        if n > self.counts[name]:
            self.counts[name] = n

    def self_times(self, duration) -> dict[str, list[float]]:
        """Self time in seconds of every span, grouped by span name.

        `duration(start, end)` turns a span's clock readings into seconds.
        """
        lengths = [duration(t0, t1) for _, t0, t1, _, _ in self.spans]
        child = [0.0] * len(self.spans)
        for (name, t0, t1, parent, _), length in zip(self.spans, lengths):
            if parent is not None:
                child[parent] += length
        out: dict[str, list[float]] = defaultdict(list)
        for i, (name, _, _, _, _) in enumerate(self.spans):
            out[name].append(lengths[i] - child[i])
        return out

    def covered_by_op(self, duration) -> dict[int, float]:
        """Seconds of each op covered by its top-level spans, as `duration` gives them."""
        out: dict[int, float] = defaultdict(float)
        for name, t0, t1, parent, op in self.spans:
            if parent is None and op >= 0:
                out[op] += duration(t0, t1)
        return out
