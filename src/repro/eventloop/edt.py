"""The Swing-like event loop built on a core :class:`EdtTarget`.

Sharing the queue with the virtual-target runtime is deliberate and mirrors
the paper's proof-of-concept, which "slightly modif[ies] the event queue
dispatching mechanism in the Java AWT runtime library": events and
``target virtual(edt)`` regions interleave in one FIFO, and a handler that
``await``-s an offloaded block pumps this same queue, so other events are
processed during the logical barrier.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from ..core.runtime import PjRuntime
from ..core.targets import EdtTarget
from ..obs import EventKind
from ..obs import recorder as _obs
from .events import Event, EventRecord

__all__ = ["EventLoop"]


class EventLoop:
    """A GUI-style event loop with listener dispatch and response metrics.

    Parameters
    ----------
    runtime:
        The Pyjama runtime to register the EDT virtual target with.
    name:
        Virtual-target name of the EDT (directives say ``virtual(<name>)``).
    """

    def __init__(self, runtime: PjRuntime, name: str = "edt") -> None:
        self.runtime = runtime
        self.name = name
        self._listeners: dict[str, list[Callable[[Event], Any]]] = {}
        self._listeners_lock = threading.Lock()
        self._records: list[EventRecord] = []
        self._records_lock = threading.Lock()
        self.target: EdtTarget = runtime.start_edt(name)

    # ------------------------------------------------------------- listeners

    def on(self, event_name: str, handler: Callable[[Event], Any]) -> None:
        """Register *handler* for events named *event_name*."""
        with self._listeners_lock:
            self._listeners.setdefault(event_name, []).append(handler)

    def off(self, event_name: str, handler: Callable[[Event], Any]) -> None:
        with self._listeners_lock:
            handlers = self._listeners.get(event_name, [])
            if handler in handlers:
                handlers.remove(handler)

    def listeners(self, event_name: str) -> list[Callable[[Event], Any]]:
        with self._listeners_lock:
            return list(self._listeners.get(event_name, ()))

    # --------------------------------------------------------------- firing

    def fire(self, event: Event | str, payload: Any = None) -> EventRecord:
        """Queue *event* for dispatch on the EDT; returns its record.

        The record's ``finished_at`` is stamped when the handler logically
        completes.  Synchronous handlers complete when they return; handlers
        that offload may call ``record.mark_finished()`` themselves from
        their completion continuation — the dispatcher only auto-stamps
        records the handler left untouched, and does so *at handler return*,
        so an async handler must take ownership by calling
        :meth:`EventRecord.mark_started`-style explicit completion (see
        ``defer_completion``).
        """
        if isinstance(event, str):
            event = Event(event, payload)
        record = EventRecord(event)
        event.record = record
        with self._records_lock:
            self._records.append(record)

        def dispatch() -> None:
            record.mark_started()
            deferred = False
            for handler in self.listeners(event.name):
                if getattr(handler, "_defers_completion", False):
                    deferred = True
                handler(event)
            if not deferred:
                record.mark_finished()

        # Trace identity: GUI events ride the same queue as target regions;
        # stamping the closure makes them named, correlated spans in the
        # trace (ENQUEUE -> DEQUEUE -> EXEC on the EDT track) rather than
        # anonymous callables.  The negative id space keeps synthetic GUI
        # event ids disjoint from TargetRegion.seq.
        dispatch._trace_name = f"event:{event.name}"  # type: ignore[attr-defined]
        dispatch._trace_id = -(event.event_id + 1)  # type: ignore[attr-defined]
        session = _obs.session()
        if session.enabled:
            session.emit(
                EventKind.REGION_SUBMIT, target=self.name,
                region=dispatch._trace_id,  # type: ignore[attr-defined]
                name=dispatch._trace_name,  # type: ignore[attr-defined]
                arg="event",
            )
        self.target.post(dispatch)
        return record

    @staticmethod
    def defer_completion(handler: Callable[[Event], Any]) -> Callable[[Event], Any]:
        """Mark *handler* as asynchronous: the dispatcher will not auto-stamp
        ``finished_at`` when it returns; the handler's continuation must call
        ``record.mark_finished()`` (records travel via the event payload or a
        closure)."""
        handler._defers_completion = True  # type: ignore[attr-defined]
        return handler

    # --------------------------------------------------------------- metrics

    @property
    def records(self) -> list[EventRecord]:
        with self._records_lock:
            return list(self._records)

    def clear_records(self) -> None:
        with self._records_lock:
            self._records.clear()

    def wait_all_finished(self, timeout: float = 10.0) -> bool:
        """Block (busy-poll) until every fired event's record is finished."""
        import time as _time

        deadline = _time.monotonic() + timeout
        while _time.monotonic() < deadline:
            if all(r.finished_at is not None for r in self.records):
                return True
            _time.sleep(0.002)
        return False

    # -------------------------------------------------------------- plumbing

    def invoke_later(self, fn: Callable[[], Any]) -> None:
        """SwingUtilities.invokeLater: run *fn* on the EDT, asynchronously."""
        self.target.post(fn)

    def invoke_and_wait(self, fn: Callable[[], Any], timeout: float | None = None) -> Any:
        """SwingUtilities.invokeAndWait: run *fn* on the EDT and return its
        value.  Runs inline if already on the EDT (Swing would deadlock here;
        we follow the virtual-target context-awareness rule instead)."""
        region = self.runtime.invoke_target_block(self.name, fn)
        return region.result(timeout)

    def is_edt(self) -> bool:
        return self.target.contains()

    def shutdown(self, wait: bool = False) -> None:
        """Stop the loop.  ``wait=True`` lets queued events dispatch first;
        the default cancels the backlog so pending handlers fail fast."""
        self.runtime.unregister_target(self.name, wait=wait)
