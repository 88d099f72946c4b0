"""In-memory spans for the traced run, and self time computed from them.

A span is (name, start, end, parent index, job id).  Spans are appended to a
list while the worker runs and only summarised when it finishes, so tracing
costs two clock reads and one list append per span.  The worker passes the
program's CPU clock (hostspeed.SpeedClock.cpu) and converts the stamps to
reference time when the round ends, like every other time it reports.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from time import process_time


class Tracer:
    def __init__(self, clock=process_time):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent, job]
        self.counts: Counter = Counter()
        self.job = "setup"
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, self.clock(), None, parent, self.job])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = self.clock()

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] += k


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of the part of [start, end] that the union of intervals covers."""
    total, reach = 0.0, start
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, end)
        if e > s:
            total += e - s
            reach = e
    return total


def self_times(spans) -> dict[str, float]:
    """Per span name: summed duration minus the part covered by child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, job in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, float] = {}
    for idx, (name, start, end, parent, job) in enumerate(spans):
        own = (end - start) - _covered(start, end, children.get(idx, []))
        out[name] = out.get(name, 0.0) + own
    return out
