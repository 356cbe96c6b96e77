"""Cross-process observability: clock handshake and worker-event merge.

The obs layer's contract (``docs/OBSERVABILITY.md``) is a single timeline on
one ``perf_counter_ns`` clock.  A worker process has its *own*
``perf_counter_ns`` origin, so its raw timestamps are meaningless in the
parent.  The fix is the classic two-step of distributed tracers:

1. **Offset estimation at spawn.**  The parent timestamps a
   :class:`~repro.dist.wire.SyncMsg` send (``t0``), the worker answers with
   its own clock reading ``w``, the parent timestamps the reply (``t1``).
   Assuming the two pipe hops are symmetric, the worker read ``w`` at parent
   time ``(t0 + t1) / 2``, giving ``offset = (t0 + t1) // 2 - w``.  Pipe
   hops on one host are tens of microseconds, so the estimate is far finer
   than the millisecond-scale spans it positions.
2. **Re-stamping at merge.**  A worker records a task's events as plain
   ``(kind, ts, region, name, arg)`` tuples on its own clock and ships them
   with the task's result (:func:`repro.dist.worker._run_task`; no session,
   ring or thread-local there: a task has two events).
   :func:`merge_worker_events` adds the offset, puts the worker's track in
   the target slot — the parent recorder's layout — and appends them
   through :meth:`~repro.obs.TraceSession.extend` to a recorder registered
   under the worker's thread label, so Chrome/Perfetto shows one process
   row per worker with its ``run`` spans aligned against the parent's
   SUBMIT/ENQUEUE/DEQUEUE events.  The worker's events carry no name: the
   parent's events of the region carry its label.
"""

from __future__ import annotations

from typing import Iterable

from ..obs import EventKind
from ..obs.recorder import TraceSession

__all__ = ["estimate_offset_ns", "merge_worker_events", "worker_track"]


def estimate_offset_ns(t0_parent: int, t1_parent: int, worker_ns: int) -> int:
    """Clock offset such that ``worker_ts + offset`` is on the parent clock."""
    return (t0_parent + t1_parent) // 2 - worker_ns


def worker_track(target_name: str, worker_id: int) -> str:
    """Trace track name of one worker: ``<target>[w<i>]``.

    Used as the event's *target* so the Chrome exporter assigns each worker
    its own process row (one pid per target name), mirroring the fact that
    it really is a separate OS process.
    """
    return f"{target_name}[w{worker_id}]"


def merge_worker_events(
    session: TraceSession,
    events: Iterable[tuple[int, int, int | None, str | None, object]],
    *,
    offset_ns: int,
    track: str,
    thread: str,
) -> int:
    """Append worker events to the parent session on the shared clock.

    *track* becomes each event's target (one Chrome process row per worker),
    *thread* the label of the recorder they join (``pid <n>``).  Returns
    how many events were merged.  Unknown kind values (a newer worker
    talking to an older parent) are skipped rather than corrupting the
    stream.
    """
    records = []
    for kind, ts, region, name, arg in events:
        try:
            kind = EventKind(kind).value
        except ValueError:
            continue
        records.append((kind, ts + offset_ns, track, region, name, arg))
    session.extend(thread, records)
    return len(records)
