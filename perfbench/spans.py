"""In-memory span recorder with a self-time report.

Spans are recorded around the benchmark's own calls into the library: name,
start, end and the index of the enclosing span.  They stay in memory and are
summarised once, when the round ends.  A span's self time is its duration
minus the time covered by its direct children.
"""

from contextlib import nullcontext
from time import perf_counter


class _Span:
    __slots__ = ("rec", "name", "index")

    def __init__(self, rec, name):
        self.rec = rec
        self.name = name

    def __enter__(self):
        rec = self.rec
        self.index = len(rec.spans)
        rec.spans.append([self.name, perf_counter(), 0.0,
                          rec.stack[-1] if rec.stack else -1])
        rec.stack.append(self.index)

    def __exit__(self, *exc):
        self.rec.spans[self.index][2] = perf_counter()
        self.rec.stack.pop()


_NO_SPAN = nullcontext()


class Recorder:
    """Spans when enabled, counters always."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []  # [name, start, end, parent index]
        self.stack = []
        self.counts = {}

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NO_SPAN

    def count(self, name: str, k: int = 1):
        self.counts[name] = self.counts.get(name, 0) + k

    def self_times(self) -> dict:
        """Total self time in seconds per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for (name, start, end, _), inner in zip(self.spans, child_time):
            out[name] = out.get(name, 0.0) + (end - start - inner)
        return out
