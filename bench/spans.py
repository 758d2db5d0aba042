"""In-memory spans for the traced run.

A span is (id, parent, name, start, end) with perf_counter times.  Spans
stay in a list until the run ends; self time is a span's duration minus
the time its children cover.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, parent, name, start, end]
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([sid, parent, name, time.perf_counter(), None])
        self._open.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][4] = time.perf_counter()
        self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a child span named after the module function."""
        sid = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(sid)


def self_times(spans: list[list]) -> dict[str, float]:
    """Total self time per span name, in seconds.

    Children of one span run one after another, so the time they cover is
    the sum of their durations.
    """
    covered: dict[int, float] = defaultdict(float)
    for _sid, parent, _name, start, end in spans:
        if parent is not None:
            covered[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for sid, _parent, name, start, end in spans:
        totals[name] += (end - start) - covered[sid]
    return dict(totals)
