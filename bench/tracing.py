"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded from the benchmark's own code, around each call into
a layer of the simulator (see ``worker.py``).  Every span has a name, a
start and end on the monotonic clock, the span that caused it, and the
id of the cell it belongs to.  Spans stay in memory and are written out
once, as Chrome trace-event JSON (opens in Perfetto or
``chrome://tracing``), when the run ends.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing off: every span is the same no-op context manager."""

    def span(self, name: str, cell: Optional[int] = None):
        return NULL_SPAN


class _Span:
    __slots__ = ("tracer", "name", "cell", "index")

    def __init__(self, tracer: "Tracer", name: str,
                 cell: Optional[int]) -> None:
        self.tracer = tracer
        self.name = name
        self.cell = cell
        self.index = -1

    def __enter__(self):
        tracer = self.tracer
        parent = tracer._stack[-1] if tracer._stack else -1
        cell = self.cell
        if cell is None and parent >= 0:
            cell = tracer.spans[parent][5]
        self.index = len(tracer.spans)
        # [name, start, end, parent, id, cell]; end is filled on exit
        tracer.spans.append([self.name, time.perf_counter(), None,
                             parent, self.index, cell])
        tracer._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tracer = self.tracer
        tracer.spans[self.index][2] = time.perf_counter()
        tracer._stack.pop()
        return False


class Tracer:
    """Records nested spans; children are the spans opened while their
    parent was the innermost open span."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.origin = time.perf_counter()

    def span(self, name: str, cell: Optional[int] = None) -> _Span:
        return _Span(self, name, cell)

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, total seconds and self seconds
        (span duration minus the time its direct children cover)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _id, _cell in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: Dict[str, Dict[str, float]] = {}
        for (name, start, end, _parent, index, _cell) in self.spans:
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[index]
        return table

    def coverage(self, parent_name: str = "cell") -> float:
        """Share of ``parent_name`` span time covered by its children."""
        covered = 0.0
        total = 0.0
        is_parent = [span[0] == parent_name for span in self.spans]
        for name, start, end, parent, _id, _cell in self.spans:
            if name == parent_name:
                total += end - start
            elif parent >= 0 and is_parent[parent]:
                covered += end - start
        return covered / total if total > 0 else 0.0

    def chrome_trace(self, pid: int) -> Dict:
        events = []
        for name, start, end, parent, index, cell in self.spans:
            events.append({
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": (start - self.origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": pid,
                "tid": 0,
                "args": {"span": index, "parent": parent, "cell": cell},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str, pid: int) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.chrome_trace(pid), fh)
