"""In-memory span recorder for the traced pass.

A span is one timed call from the benchmark's own files into a layer of
``src/repro``: ``(name, layer, start_ns, end_ns, parent, op_id)`` on
``perf_counter_ns``.  Spans of one click / request / echo share an ``op_id``;
``parent`` is the index of the span that caused this one (the enclosing span
on the same thread unless given explicitly for a cross-thread hop).  Nothing
is written until the pass ends.  The untraced pass uses :data:`OFF`, whose
``span()`` costs one call and records nothing.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from typing import Any, Callable, Iterator

__all__ = ["Span", "SpanRecorder", "OFF", "self_times", "layer_table", "chrome_trace",
           "write_chrome_trace"]


class Span:
    __slots__ = ("name", "layer", "start_ns", "end_ns", "parent", "op_id", "thread")

    def __init__(self, name: str, layer: str, start_ns: int, parent: int | None,
                 op_id: int | None, thread: str) -> None:
        self.name = name
        self.layer = layer
        self.start_ns = start_ns
        self.end_ns = start_ns
        self.parent = parent
        self.op_id = op_id
        self.thread = thread


class SpanRecorder:
    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self._clock = clock
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name: str, layer: str, op_id: int | None = None,
             parent: int | None = None) -> Iterator[int]:
        """Time the body; yields the span's index, to hand to another thread
        as the explicit *parent* of what it does on this span's behalf."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if parent is None and stack:
            parent = stack[-1]
        if op_id is None and parent is not None:
            op_id = self.spans[parent].op_id
        span = Span(name, layer, self._clock(), parent, op_id,
                    threading.current_thread().name)
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        try:
            yield index
        finally:
            stack.pop()
            span.end_ns = self._clock()


class _Off:
    """Tracing off: the same surface, no clock reads, nothing stored."""

    spans: list[Span] = []
    _null = contextlib.nullcontext()

    def span(self, name: str, layer: str, op_id: int | None = None,
             parent: int | None = None) -> contextlib.nullcontext:
        return self._null


OFF = _Off()


def self_times(spans: list[Span]) -> list[int]:
    """Self time of every span: its duration minus the part of its interval
    that its child spans cover (overlapping children are not counted twice)."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0
        edge = s.start_ns
        for c in sorted(children.get(i, ()), key=lambda c: c.start_ns):
            lo = max(c.start_ns, edge)
            hi = min(c.end_ns, s.end_ns)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out.append(s.end_ns - s.start_ns - covered)
    return out


def layer_table(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per layer: span count, total self time and self time per operation."""
    ops = len({s.op_id for s in spans if s.op_id is not None}) or 1
    table: dict[str, dict[str, float]] = {}
    for s, self_ns in zip(spans, self_times(spans)):
        row = table.setdefault(s.layer, {"spans": 0, "self_ms": 0.0})
        row["spans"] += 1
        row["self_ms"] += self_ns / 1e6
    for row in table.values():
        row["self_us_per_op"] = row["self_ms"] * 1e3 / ops
    return table


def chrome_trace(spans: list[Span]) -> dict[str, Any]:
    """Chrome trace-event JSON (load in chrome://tracing or ui.perfetto.dev):
    one track per thread, the layer as category, op_id and parent as args."""
    tids: dict[str, int] = {}
    events: list[dict[str, Any]] = []
    for i, s in enumerate(spans):
        tid = tids.setdefault(s.thread, len(tids) + 1)
        events.append({
            "name": s.name, "cat": s.layer, "ph": "X", "pid": 1, "tid": tid,
            "ts": s.start_ns / 1e3, "dur": (s.end_ns - s.start_ns) / 1e3,
            "args": {"span": i, "parent": s.parent, "op_id": s.op_id},
        })
    for name, tid in tids.items():
        events.append({"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                       "args": {"name": name}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: Any, spans: list[Span]) -> None:
    with open(path, "w") as fh:
        json.dump(chrome_trace(spans), fh)
