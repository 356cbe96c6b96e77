"""Request-lifecycle statistics and their export surfaces.

Two consumers read a served workload:

* the ``/stats`` endpoint and the CLI summary — :class:`ServerStats`
  counters plus p50/p99 latency over the most recent samples;
* ``repro.obs`` — every request is dispatched as a :class:`TargetRegion`
  through ``invoke_target_block``, so with tracing on the trace already
  carries one ``REGION_SUBMIT → ENQUEUE → DEQUEUE → EXEC`` flow arrow per
  request and per-target ``QUEUE_DEPTH`` counter tracks; :func:`export_trace`
  snapshots the session into a Chrome/Perfetto file.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any

from ..bench.harness import percentile

__all__ = ["ServerStats", "export_trace"]

#: Latency samples :class:`ServerStats` keeps (the most recent ones).  One
#: float per request for the server's lifetime grows without bound, and
#: every ``GET /stats`` copies the samples under the lock each request
#: takes, then sorts the copy; 8192 bounds that at ~64 KiB and about a
#: millisecond while leaving ~80 samples above the p99 it reports.
LATENCY_WINDOW = 8192


class ServerStats:
    """Counters for one server lifetime — exact — and the latency samples
    of its last :data:`LATENCY_WINDOW` requests.

    Mutated from the event-loop thread (request lifecycle) and read from
    arbitrary threads (``/stats``, CLI, tests); the lock keeps multi-field
    snapshots consistent without mattering on the hot path (one acquisition
    per request).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.connections = 0
        self.requests = 0
        self.statuses: dict[int, int] = {}
        self.rejected = 0          # bounded admission said no (503)
        self.timeouts = 0          # request deadline expired (504)
        self.failures = 0          # handler region failed (500)
        self.draining_rejects = 0  # request arrived during drain (503)
        self.bytes_in = 0
        self.bytes_out = 0
        self.latencies_s: deque[float] = deque(maxlen=LATENCY_WINDOW)

    def record(self, status: int | None = None, latency_s: float | None = None,
               *, counter: str | None = None, bytes_in: int = 0,
               bytes_out: int = 0) -> None:
        """The single mutation path: every counter update goes through here.

        One lock acquisition covers the whole read-modify-write, whether the
        call logs a finished request (*status* + *latency_s*) or bumps a
        named event *counter* — no field is ever incremented outside this
        guard.
        """
        with self._lock:
            if counter is not None:
                setattr(self, counter, getattr(self, counter) + 1)
            if status is not None:
                self.requests += 1
                self.statuses[status] = self.statuses.get(status, 0) + 1
                self.bytes_in += bytes_in
                self.bytes_out += bytes_out
                self.latencies_s.append(0.0 if latency_s is None else latency_s)

    def bump(self, counter: str) -> None:
        """Convenience spelling of ``record(counter=...)``."""
        self.record(counter=counter)

    def snapshot(self) -> dict[str, Any]:
        """Consistent view of every counter plus latency percentiles over
        the sample window."""
        with self._lock:
            lat = list(self.latencies_s)
            snap: dict[str, Any] = {
                "connections": self.connections,
                "requests": self.requests,
                "statuses": {str(k): v for k, v in sorted(self.statuses.items())},
                "rejected": self.rejected,
                "timeouts": self.timeouts,
                "failures": self.failures,
                "draining_rejects": self.draining_rejects,
                "bytes_in": self.bytes_in,
                "bytes_out": self.bytes_out,
            }
        if lat:
            snap["latency_ms"] = {
                "p50": round(percentile(lat, 50.0) * 1e3, 3),
                "p99": round(percentile(lat, 99.0) * 1e3, 3),
                "max": round(max(lat) * 1e3, 3),
            }
        return snap


def export_trace(path: str) -> int:
    """Write the current trace session as a Chrome trace; returns event count.

    With ``REPRO_TRACE=1`` (or ``--trace`` on the CLI) a served workload
    exports the same flow-arrow timeline every other workload does: one
    submit→exec arrow per request region, queue-depth counter tracks per
    target, worker lifecycle instants for process backends.
    """
    from .. import obs

    events = obs.session().events()
    obs.write_chrome_trace(path, events)
    return len(events)
