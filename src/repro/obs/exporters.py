"""Trace exporters: Chrome trace-event JSON and a plain-text timeline.

:func:`to_chrome_trace` produces the Trace Event Format consumed by
``chrome://tracing`` and https://ui.perfetto.dev:

* one *process* row per virtual target (plus an ``app`` row for threads that
  belong to no target), named via ``process_name`` metadata events;
* ``X`` (complete) slices for region execution, ``await``-barrier pumping
  and ``wait(tag)`` joins;
* flow arrows (``s``/``f``) from each region's submit slice to its
  execution slice — the visual of Algorithm 1's post → dequeue → run path;
* ``C`` counter tracks for queue-depth samples;
* ``i`` instants for cancellations, rejections and inline elisions.

:func:`to_text_timeline` renders the same stream as an aligned, greppable
log for terminals and test assertions.
"""

from __future__ import annotations

import json
from typing import IO, Iterable

from .events import EventKind, TraceEvent

__all__ = ["to_chrome_trace", "write_chrome_trace", "to_text_timeline"]

_APP_TRACK = "app"

#: Instant-style kinds and their display names.
_INSTANTS = {
    EventKind.CANCEL: "cancel",
    EventKind.REJECT: "reject",
    EventKind.INLINE_ELIDE: "inline",
    EventKind.ENQUEUE: "enqueue",
    EventKind.DEQUEUE: "dequeue",
    EventKind.PUMP_STEAL: "pump-steal",
    EventKind.WORKER_SPAWN: "worker-spawn",
    EventKind.WORKER_EXIT: "worker-exit",
    EventKind.WORKER_CRASH: "worker-crash",
    EventKind.WORKER_CONNECT: "worker-connect",
    EventKind.WORKER_DISCONNECT: "worker-disconnect",
}


def _us(ts_ns: int, origin_ns: int) -> float:
    return (ts_ns - origin_ns) / 1000.0


class _TrackTable:
    """Stable pid/tid assignment: one pid per virtual target, one tid per
    thread name within it."""

    def __init__(self) -> None:
        self._pids: dict[str, int] = {}
        self._tids: dict[tuple[int, str], int] = {}

    def pid(self, target: str | None) -> int:
        key = target if target is not None else _APP_TRACK
        if key not in self._pids:
            self._pids[key] = len(self._pids) + 1
        return self._pids[key]

    def tid(self, pid: int, thread: str) -> int:
        key = (pid, thread)
        if key not in self._tids:
            self._tids[key] = sum(1 for p, _ in self._tids if p == pid) + 1
        return self._tids[key]

    def metadata(self) -> list[dict]:
        meta: list[dict] = []
        for track, pid in self._pids.items():
            label = "app threads" if track == _APP_TRACK else f"target {track}"
            meta.append({
                "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                "args": {"name": label},
            })
        for (pid, thread), tid in self._tids.items():
            meta.append({
                "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                "args": {"name": thread},
            })
        return meta


def to_chrome_trace(events: Iterable[TraceEvent]) -> dict:
    """Convert a merged event stream into a Chrome trace-event document."""
    evs = sorted(events, key=lambda e: (e.ts, e.seq))
    if not evs:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    origin = evs[0].ts
    tracks = _TrackTable()
    out: list[dict] = []

    # Pre-index per-region timestamps so submit slices can span submit→enqueue.
    enqueue_ts: dict[int, int] = {}
    exec_begin: dict[int, int] = {}
    for e in evs:
        if e.region is None:
            continue
        if e.kind is EventKind.ENQUEUE and e.region not in enqueue_ts:
            enqueue_ts[e.region] = e.ts
        elif e.kind is EventKind.EXEC_BEGIN and e.region not in exec_begin:
            exec_begin[e.region] = e.ts

    # Open-span stacks keyed by (thread, kind-pair).
    open_spans: dict[tuple[str, EventKind], list[TraceEvent]] = {}
    _PAIR = {
        EventKind.EXEC_END: EventKind.EXEC_BEGIN,
        EventKind.BARRIER_EXIT: EventKind.BARRIER_ENTER,
        EventKind.TAG_WAIT_END: EventKind.TAG_WAIT_BEGIN,
    }
    _SPAN_LABEL = {
        EventKind.EXEC_BEGIN: "run",
        EventKind.BARRIER_ENTER: "await barrier",
        EventKind.TAG_WAIT_BEGIN: "wait(tag)",
    }

    for e in evs:
        pid = tracks.pid(e.target)
        tid = tracks.tid(pid, e.thread)
        ts = _us(e.ts, origin)

        if e.kind is EventKind.REGION_SUBMIT:
            # A short slice on the submitting thread covering submit→enqueue
            # (or a sliver when the region ran inline / was rejected), plus
            # the outgoing half of the submit→exec flow arrow.
            end = enqueue_ts.get(e.region, e.ts) if e.region is not None else e.ts
            dur = max((end - e.ts) / 1000.0, 0.5)
            out.append({
                "name": f"submit {e.name or e.region}", "cat": "dispatch",
                "ph": "X", "ts": ts, "dur": dur, "pid": pid, "tid": tid,
                "args": _args(e),
            })
            if e.region is not None and e.region in exec_begin:
                out.append({
                    "name": "dispatch", "cat": "dispatch", "ph": "s",
                    "id": e.region, "ts": ts, "pid": pid, "tid": tid,
                })
        elif e.kind.is_span_begin:
            open_spans.setdefault((e.thread, e.kind), []).append(e)
        elif e.kind in _PAIR:
            stack = open_spans.get((e.thread, _PAIR[e.kind]), [])
            if not stack:
                continue  # unmatched end (begin fell off the ring) — skip
            begin = stack.pop()
            label = _SPAN_LABEL[_PAIR[e.kind]]
            name = begin.name or (str(begin.region) if begin.region is not None else "")
            # Spans open on the begin event's track: an exec span belongs to
            # the target that ran it even if the end event lost the context.
            bpid = tracks.pid(begin.target)
            btid = tracks.tid(bpid, begin.thread)
            slice_ev = {
                "name": f"{label} {name}".strip(), "cat": "region",
                "ph": "X", "ts": _us(begin.ts, origin),
                "dur": max((e.ts - begin.ts) / 1000.0, 0.5),
                "pid": bpid, "tid": btid, "args": _args(begin, e),
            }
            out.append(slice_ev)
            if begin.kind is EventKind.EXEC_BEGIN and begin.region is not None:
                out.append({
                    "name": "dispatch", "cat": "dispatch", "ph": "f",
                    "bp": "e", "id": begin.region,
                    "ts": _us(begin.ts, origin), "pid": bpid, "tid": btid,
                })
        elif e.kind is EventKind.QUEUE_DEPTH:
            out.append({
                "name": "queue depth", "cat": "telemetry", "ph": "C",
                "ts": ts, "pid": pid, "tid": 0,
                "args": {"depth": e.arg if isinstance(e.arg, (int, float)) else 0},
            })
        elif e.kind in _INSTANTS:
            out.append({
                "name": f"{_INSTANTS[e.kind]} {e.name or ''}".strip(),
                "cat": "dispatch", "ph": "i", "s": "t",
                "ts": ts, "pid": pid, "tid": tid, "args": _args(e),
            })

    return {"traceEvents": tracks.metadata() + out, "displayTimeUnit": "ms"}


#: Friendlier args keys for specific kinds' payloads.
_ARG_KEY = {
    EventKind.EXEC_END: "outcome",
    EventKind.REGION_SUBMIT: "mode",
    EventKind.CANCEL: "reason",
}


def _args(*events: TraceEvent) -> dict:
    args: dict = {}
    for e in events:
        if e.region is not None:
            args.setdefault("region", e.region)
        if e.arg is not None:
            if isinstance(e.arg, dict):
                args.update(e.arg)
            else:
                args.setdefault(_ARG_KEY.get(e.kind, e.kind.name.lower()), e.arg)
    return args


def write_chrome_trace(path_or_file: str | IO[str], events: Iterable[TraceEvent]) -> None:
    """Serialize :func:`to_chrome_trace` output to *path_or_file* as JSON."""
    doc = to_chrome_trace(events)
    if hasattr(path_or_file, "write"):
        json.dump(doc, path_or_file)  # type: ignore[arg-type]
    else:
        with open(path_or_file, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def to_text_timeline(events: Iterable[TraceEvent]) -> str:
    """An aligned, greppable text rendering of the event stream.

    One line per event — relative milliseconds, thread, target, kind,
    region/label, payload — followed by per-kind totals.
    """
    evs = sorted(events, key=lambda e: (e.ts, e.seq))
    if not evs:
        return "(no events recorded)"
    origin = evs[0].ts
    lines: list[str] = []
    counts: dict[str, int] = {}
    for e in evs:
        counts[e.kind.name] = counts.get(e.kind.name, 0) + 1
        rel_ms = (e.ts - origin) / 1e6
        bits = [
            f"[+{rel_ms:10.3f}ms]",
            f"{e.thread:<22}",
            f"{(e.target or '-'):<10}",
            f"{e.kind.name:<14}",
        ]
        if e.region is not None:
            bits.append(f"#{e.region}")
        if e.name:
            bits.append(str(e.name))
        if e.arg is not None:
            bits.append(f"({e.arg})")
        lines.append(" ".join(bits).rstrip())
    total_ms = (evs[-1].ts - origin) / 1e6
    summary = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    lines.append("")
    lines.append(f"{len(evs)} events over {total_ms:.3f} ms: {summary}")
    return "\n".join(lines)
