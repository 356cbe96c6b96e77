"""Per-thread ring-buffer recorders behind a process-global trace session.

Design constraints (mirroring what production tracers like Extrae do):

* **No contention on the hot path.**  Each thread owns a private
  :class:`RingRecorder`; ``emit`` never takes a lock after the recorder is
  created, so tracing does not serialize the runtime it is observing.
* **Bounded memory.**  Recorders are fixed-capacity rings; when full they
  overwrite the *oldest* event and count it in :attr:`RingRecorder.dropped`,
  so a long-running system keeps the most recent window and the drop count
  is an explicit, queryable fact rather than silent truncation.
* **Zero allocation when disabled.**  The idiomatic call site is::

      if _trace.enabled:
          _trace.emit(EventKind.ENQUEUE, target=self.name, ...)

  With tracing off the cost is one attribute read and a branch; no event
  object, no argument tuple.  (``emit`` re-checks ``enabled`` itself, so
  un-guarded call sites stay correct, just marginally slower.)

The process-global :func:`session` is enabled either programmatically
(``repro.obs.enable()``), through the ``trace_enabled_var`` ICV on
:class:`~repro.core.runtime.PjRuntime`, or by the ``REPRO_TRACE=1``
environment variable at import time (``REPRO_TRACE_BUFFER`` sizes the
per-thread rings).
"""

from __future__ import annotations

import os
import threading

from .events import EventKind, TraceEvent, now_ns

__all__ = [
    "RingRecorder",
    "NullRecorder",
    "TraceSession",
    "session",
    "enable",
    "disable",
    "is_enabled",
    "emit",
    "DEFAULT_BUFFER_SIZE",
]

DEFAULT_BUFFER_SIZE = 65536


class RingRecorder:
    """A fixed-capacity per-thread event ring.

    Only its owning thread appends; any thread may snapshot via
    :meth:`events` (best-effort consistent — the GIL makes the list ops
    atomic, and collection normally happens after the workload quiesces).
    """

    __slots__ = ("thread_name", "capacity", "generation", "_buf", "_next", "recorded", "dropped")

    def __init__(self, capacity: int, generation: int, thread_name: str) -> None:
        if capacity < 1:
            raise ValueError(f"ring capacity must be >= 1, got {capacity}")
        self.thread_name = thread_name
        self.capacity = capacity
        self.generation = generation
        self._buf: list[TraceEvent | None] = [None] * capacity
        self._next = 0  # total appends; index = _next % capacity
        self.recorded = 0
        self.dropped = 0

    def append(self, event: TraceEvent) -> None:
        i = self._next
        event.seq = i
        slot = i % self.capacity
        if self._buf[slot] is not None:
            self.dropped += 1  # overwrote the oldest event: it is lost
        self._buf[slot] = event
        self._next = i + 1
        self.recorded += 1

    def __len__(self) -> int:
        return min(self._next, self.capacity)

    def events(self) -> list[TraceEvent]:
        """Events still in the ring, oldest first."""
        n = self._next
        if n <= self.capacity:
            return [e for e in self._buf[:n] if e is not None]
        start = n % self.capacity
        out = self._buf[start:] + self._buf[:start]
        return [e for e in out if e is not None]


class NullRecorder:
    """Accepts and discards events.

    Used by the ``null`` session mode so the overhead of event *construction*
    (the instrumented call sites firing) can be measured separately from the
    cost of *storing* events — ``obs.null_overhead_ratio`` beside
    ``obs.ring_overhead_ratio`` in ``benchmarks/e2e``.
    """

    __slots__ = ("thread_name", "generation", "recorded", "dropped")

    capacity = 0

    def __init__(self, generation: int, thread_name: str) -> None:
        self.thread_name = thread_name
        self.generation = generation
        self.recorded = 0
        self.dropped = 0

    def append(self, event: TraceEvent) -> None:
        self.recorded += 1

    def __len__(self) -> int:
        return 0

    def events(self) -> list[TraceEvent]:
        return []


class TraceSession:
    """Process-global tracing state: an on/off switch plus the registry of
    per-thread recorders created while it was on.

    ``start()``/``stop()`` bracket one recording window; ``events()`` merges
    every thread's ring into a single timeline ordered by the shared
    ``perf_counter_ns`` clock.  Restarting bumps an internal generation so
    recorders cached in thread-locals from a previous window are abandoned,
    never written into retroactively.
    """

    def __init__(self, buffer_size: int = DEFAULT_BUFFER_SIZE) -> None:
        self.enabled = False
        self.buffer_size = buffer_size
        self.null = False
        self._generation = 0
        self._lock = threading.Lock()
        self._recorders: list[RingRecorder | NullRecorder] = []
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
            self._generation += 1
            self._recorders = []
            self.enabled = True

    def stop(self) -> None:
        """Stop recording; recorded events stay readable until the next start."""
        self.enabled = False

    @property
    def generation(self) -> int:
        """Bumped on every start()/clear(): identifies one recording window.

        Instrumentation that samples (e.g. the queue-depth stride in
        ``repro.core.targets``) keys its counters on this so a fresh window
        always begins with a sample instead of inheriting a mid-stride
        counter from the previous run.
        """
        return self._generation

    def clear(self) -> None:
        """Drop all recorded events (keeps the enabled/disabled state)."""
        with self._lock:
            self._generation += 1
            self._recorders = []

    # ----------------------------------------------------------------- emit

    def emit(
        self,
        kind: EventKind,
        *,
        target: str | None = None,
        region: int | None = None,
        name: str | None = None,
        arg: object = None,
        ts: int | None = None,
        thread: str | None = None,
    ) -> None:
        """Record one event on the calling thread's recorder.

        *ts* lets an instrumentation site stamp a time captured earlier (e.g.
        the instant *before* a blocking enqueue) so causal order survives
        even when the event object is built after the fact.  *thread*
        overrides the recorded thread label: process targets replay events
        that happened on a worker process through the parent-side shipper
        thread, and the trace must attribute them to the worker, not the
        shipper.
        """
        if not self.enabled:
            return
        rec = getattr(self._local, "rec", None)
        if rec is None or rec.generation != self._generation:
            rec = self._new_recorder()
        rec.append(
            TraceEvent(
                kind,
                now_ns() if ts is None else ts,
                thread if thread is not None else rec.thread_name,
                target,
                region,
                name,
                arg,
            )
        )

    def _new_recorder(self) -> RingRecorder | NullRecorder:
        tname = threading.current_thread().name
        with self._lock:
            gen = self._generation
            rec: RingRecorder | NullRecorder
            if self.null:
                rec = NullRecorder(gen, tname)
            else:
                rec = RingRecorder(self.buffer_size, gen, tname)
            self._recorders.append(rec)
        self._local.rec = rec
        return rec

    # ------------------------------------------------------------ collection

    def events(self) -> list[TraceEvent]:
        """Every recorded event, merged across threads and time-ordered."""
        with self._lock:
            recorders = list(self._recorders)
        merged: list[TraceEvent] = []
        for rec in recorders:
            merged.extend(rec.events())
        merged.sort(key=lambda e: (e.ts, e.seq))
        return merged

    def stats(self) -> dict[str, object]:
        """Recorder bookkeeping: per-thread and aggregate counts."""
        with self._lock:
            recorders = list(self._recorders)
        per_thread = {
            rec.thread_name: {
                "recorded": rec.recorded,
                "retained": len(rec),
                "dropped": rec.dropped,
                "capacity": rec.capacity,
            }
            for rec in recorders
        }
        return {
            "enabled": self.enabled,
            "null": self.null,
            "threads": len(recorders),
            "recorded": sum(r.recorded for r in recorders),
            "retained": sum(len(r) for r in recorders),
            "dropped": sum(r.dropped for r in recorders),
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


def _session_from_env() -> TraceSession:
    size = DEFAULT_BUFFER_SIZE
    raw = os.environ.get("REPRO_TRACE_BUFFER")
    if raw:
        try:
            size = max(1, int(raw))
        except ValueError:
            pass
    s = TraceSession(buffer_size=size)
    if _env_truthy(os.environ.get("REPRO_TRACE")):
        s.start()
    return s


_SESSION = _session_from_env()


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
    return _SESSION.enabled


def emit(kind: EventKind, **kwargs) -> None:
    """Module-level convenience for cold call sites; hot paths should hold a
    session reference and guard with ``session.enabled`` themselves."""
    _SESSION.emit(kind, **kwargs)
