"""Per-thread trace recorders behind a process-global trace session.

An event is recorded as a plain tuple ``(kind, ts, target, region, name,
arg)`` — :class:`~repro.obs.TraceEvent`'s fields minus the thread and the
sequence number, which the recorder implies — and becomes a
:class:`~repro.obs.TraceEvent` only when someone reads the trace
(:meth:`TraceSession.events`).  *kind* is an :class:`EventKind` or its int
value; the per-region call sites pass ints, so a record holds nothing the
garbage collector has to keep tracking.  Design constraints (mirroring what
production tracers like Extrae do):

* **No contention on the hot path.**  Each thread owns a private recorder;
  ``emit`` never takes a lock after the recorder is created, so tracing
  does not serialize the runtime it is observing.
* **Bounded memory.**  A recorder's records sit in a
  ``collections.deque(maxlen=buffer_size)``, a ring in C: when full it
  discards the *oldest* record, so a long-running system keeps the most
  recent window, and ``dropped`` (recorded minus retained) is an explicit,
  queryable fact rather than silent truncation.  Null mode is
  ``maxlen=0``: every record is counted and discarded.
* **Names at collection.**  A region's label rides only on the first event
  the region records in a window (:meth:`TargetRegion._trace_name
  <repro.core.region.TargetRegion._trace_name>`); its later events carry
  ``None`` and :meth:`TraceSession.events` names them from that first one.
* **Zero allocation when disabled.**  The idiomatic call site is::

      if _trace.enabled:
          _trace.emit(EventKind.ENQUEUE, target=self.name, ...)

  With tracing off the cost is one attribute read and a branch; no record,
  no argument tuple.  (``emit`` re-checks ``enabled`` itself, so
  un-guarded call sites stay correct, just marginally slower.)

The process-global :func:`session` is enabled either programmatically
(``repro.obs.enable()``) or by the ``REPRO_TRACE=1`` environment variable
at import time.
"""

from __future__ import annotations

import os
import threading
from collections import deque

from .events import EventKind, TraceEvent, now_ns

__all__ = [
    "TraceSession",
    "session",
    "enable",
    "disable",
    "is_enabled",
    "emit",
    "DEFAULT_BUFFER_SIZE",
]

DEFAULT_BUFFER_SIZE = 65536

_KIND_OF = {k.value: k for k in EventKind}


class _Recorder:
    """The records attributed to one thread label, and how many were ever
    appended: ``dropped`` is ``recorded - len(records)``."""

    __slots__ = ("thread", "records", "recorded")

    def __init__(self, thread: str, maxlen: int) -> None:
        self.thread = thread
        self.records: deque[tuple] = deque(maxlen=maxlen)
        self.recorded = 0


class TraceSession:
    """Process-global tracing state: an on/off switch plus the registry of
    per-thread recorders created while it was on.

    ``start()``/``stop()`` bracket one recording window; ``events()`` merges
    every recorder into a single timeline ordered by the shared
    ``perf_counter_ns`` clock.  Restarting replaces the thread-local slot
    the recorders hang off, so a recorder from a previous window is
    abandoned, never written into retroactively.
    """

    def __init__(self, buffer_size: int = DEFAULT_BUFFER_SIZE) -> None:
        self.enabled = False
        self.buffer_size = buffer_size
        self.null = False
        #: Bumped on every start()/clear(): identifies one recording window.
        #: Instrumentation keys per-window state on it — the queue-depth
        #: stride in ``repro.core.targets`` (a fresh window begins with a
        #: sample) and the first-event label of every region.
        self.generation = 0
        self._lock = threading.Lock()
        self._recorders: list[_Recorder] = []
        self._bulk: dict[str, _Recorder] = {}
        self._local = threading.local()

    # -------------------------------------------------------------- lifecycle

    def start(self, *, buffer_size: int | None = None, null: bool = False) -> None:
        """Begin a fresh recording window (clears prior events)."""
        with self._lock:
            if buffer_size is not None:
                if buffer_size < 1:
                    raise ValueError(f"buffer_size must be >= 1, got {buffer_size}")
                self.buffer_size = buffer_size
            self.null = null
            self._new_window()
            self.enabled = True

    def stop(self) -> None:
        """Stop recording; recorded events stay readable until the next start."""
        self.enabled = False

    def clear(self) -> None:
        """Drop all recorded events (keeps the enabled/disabled state)."""
        with self._lock:
            self._new_window()

    def _new_window(self) -> None:
        self.generation += 1
        self._recorders = []
        self._bulk = {}
        self._local = threading.local()

    @property
    def _maxlen(self) -> int:
        return 0 if self.null else self.buffer_size

    # ----------------------------------------------------------------- emit

    def emit(
        self,
        kind: EventKind | int,
        *,
        target: str | None = None,
        region: int | None = None,
        name: str | None = None,
        arg: object = None,
        ts: int | None = None,
    ) -> None:
        """Record one event on the calling thread's recorder.

        *ts* lets an instrumentation site stamp a time captured earlier (e.g.
        the instant *before* a blocking enqueue) so causal order survives
        even when the event is recorded after the fact.  *name* None on an
        event with a *region* means "the region's label", resolved by
        :meth:`events`.
        """
        if not self.enabled:
            return
        try:
            rec = self._local.rec
        except AttributeError:
            rec = self._new_recorder()
        rec.records.append((kind, now_ns() if ts is None else ts, target, region, name, arg))
        rec.recorded += 1

    def _new_recorder(self) -> _Recorder:
        rec = _Recorder(threading.current_thread().name, self._maxlen)
        with self._lock:
            self._recorders.append(rec)
            self._local.rec = rec
        return rec

    def extend(self, thread: str, records: list[tuple]) -> None:
        """Append already-built *records* (the :meth:`emit` layout) under
        the label *thread*, one recorder per label and window: how a worker
        process's events join the trace (:mod:`repro.dist.remote_obs`)."""
        with self._lock:
            rec = self._bulk.get(thread)
            if rec is None:
                rec = self._bulk[thread] = _Recorder(thread, self._maxlen)
                self._recorders.append(rec)
            rec.records.extend(records)
            rec.recorded += len(records)

    # ------------------------------------------------------------ collection

    def events(self) -> list[TraceEvent]:
        """Every retained event, merged across recorders and time-ordered.

        The one place a :class:`TraceEvent` is built.  An event recorded
        with a region and no name gets the name of that region's first
        named event; a region whose naming event was dropped reads unnamed.
        """
        with self._lock:
            recorders = list(self._recorders)
        merged: list[TraceEvent] = []
        for rec in recorders:
            records = list(rec.records)  # one C-level copy, oldest first
            thread = rec.thread
            merged.extend(
                TraceEvent(_KIND_OF[kind], ts, thread, target, region, name, arg, seq)
                for seq, (kind, ts, target, region, name, arg)
                in enumerate(records, max(0, rec.recorded - len(records)))
            )
        merged.sort(key=lambda e: (e.ts, e.seq))
        labels: dict[int, str] = {}
        for e in merged:
            if e.name is not None and e.region is not None:
                labels.setdefault(e.region, e.name)
        for e in merged:
            if e.name is None and e.region is not None:
                e.name = labels.get(e.region)
        return merged

    def stats(self) -> dict[str, object]:
        """Recorder bookkeeping: per-thread and aggregate counts.

        Recorders that share a thread name (a re-created pool reuses its
        lane names) add up under it, so the rows sum to the totals.
        """
        with self._lock:
            recorders = list(self._recorders)
        per_thread: dict[str, dict[str, int]] = {}
        for rec in recorders:
            maxlen = rec.records.maxlen
            recorded = rec.recorded
            retained = min(recorded, maxlen)
            row = per_thread.setdefault(
                rec.thread, {"recorded": 0, "retained": 0, "dropped": 0, "capacity": 0}
            )
            row["recorded"] += recorded
            row["retained"] += retained
            row["dropped"] += recorded - retained
            row["capacity"] += maxlen
        rows = per_thread.values()
        return {
            "enabled": self.enabled,
            "null": self.null,
            "threads": len(recorders),
            "recorded": sum(r["recorded"] for r in rows),
            "retained": sum(r["retained"] for r in rows),
            "dropped": sum(r["dropped"] for r in rows),
            "per_thread": per_thread,
        }

    def describe(self) -> str:
        """One-line summary for ``diagnostic_dump()``."""
        s = self.stats()
        mode = "off" if not s["enabled"] else ("null" if s["null"] else "on")
        return (
            f"trace: {mode} threads={s['threads']} recorded={s['recorded']} "
            f"retained={s['retained']} dropped={s['dropped']}"
        )


def _env_truthy(value: str | None) -> bool:
    return (value or "").strip().lower() in ("1", "true", "yes", "on")


_SESSION = TraceSession()
if _env_truthy(os.environ.get("REPRO_TRACE")):
    _SESSION.start()


def session() -> TraceSession:
    """The process-global trace session."""
    return _SESSION


def enable(*, buffer_size: int | None = None, null: bool = False) -> TraceSession:
    """Start (or restart) process-wide tracing; returns the session."""
    _SESSION.start(buffer_size=buffer_size, null=null)
    return _SESSION


def disable() -> TraceSession:
    """Stop process-wide tracing (events stay readable)."""
    _SESSION.stop()
    return _SESSION


def is_enabled() -> bool:
    """Whether the process-wide trace session is recording."""
    return _SESSION.enabled


def emit(kind: EventKind, **kwargs) -> None:
    """Module-level convenience for cold call sites; hot paths should hold a
    session reference and guard with ``session.enabled`` themselves."""
    _SESSION.emit(kind, **kwargs)
