"""In-memory spans recorded around the benchmark's own calls into twisthom.

A span has a name, start, end, parent span and verdict id.  Spans are kept in
a list and written out once the run ends; nothing here touches the library.
A layer's self time is the time its spans cover minus the time covered by
their direct children.
"""

from __future__ import annotations

import time
from collections import defaultdict


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", index: int):
        self.tracer = tracer
        self.index = index

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        tracer = self.tracer
        tracer.records[self.index][2] = time.perf_counter()
        tracer.stack.pop()
        return False


class Tracer:
    """Records spans; ``verdict`` is set by the caller before each verdict."""

    enabled = True

    def __init__(self):
        self.records: list[list] = []  # [name, start, end, parent, verdict]
        self.stack: list[int] = []
        self.verdict: int | None = None

    def span(self, name: str) -> _Span:
        index = len(self.records)
        parent = self.stack[-1] if self.stack else None
        self.records.append([name, time.perf_counter(), None, parent, self.verdict])
        self.stack.append(index)
        return _Span(self, index)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span's children subtracted."""
        child_time = defaultdict(float)
        for _, start, end, parent, _ in self.records:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.records):
            out[name] += (end - start) - child_time[i]
        return dict(out)


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class NullTracer:
    """Tracing off: spans cost one method call and record nothing."""

    enabled = False
    verdict = None
    _span = _NullSpan()

    def span(self, name: str) -> _NullSpan:
        return self._span
