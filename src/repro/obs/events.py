"""The trace-event taxonomy of the virtual-target runtime.

Every observable step of a target region's life emits one :class:`TraceEvent`
(cf. Extrae's ``new_openmp_events.h`` taxonomy for OpenMP runtimes).  The
kinds mirror the paper's lifecycle:

* dispatch — ``REGION_SUBMIT`` (Algorithm 1 entered), ``ENQUEUE``
  (``E.post(B)``), ``DEQUEUE`` (an executor thread picked the item up),
  ``EXEC_BEGIN``/``EXEC_END`` (the block body ran), ``CANCEL`` (withdrawn),
  ``REJECT`` (bounded-queue rejection), ``INLINE_ELIDE`` (thread-context
  awareness short-circuited the queue, Algorithm 1 lines 6-7);
* the logical barrier (``await``, a member thread's ``wait(tag)``) —
  ``BARRIER_ENTER``, ``PUMP_STEAL`` (a thread executed queued work it did not
  own: a pumping barrier, or an idle sibling lane stealing), ``BARRIER_EXIT``;
* ``wait(tag)`` joins — ``TAG_WAIT_BEGIN``/``TAG_WAIT_END``;
* telemetry — ``QUEUE_DEPTH`` samples (one counter track per target);
* process-target supervision — ``WORKER_SPAWN``/``WORKER_EXIT``/
  ``WORKER_CRASH`` instants marking worker-process lifecycle transitions;
* cluster-target connectivity — ``WORKER_CONNECT``/``WORKER_DISCONNECT``
  instants marking a socket-connected remote worker lane coming up (clock
  handshake complete) or going away (connection closed or torn);
* scheduling-policy decisions — ``PUMP_STEAL`` doubles as the
  work-stealing marker: its dict ``arg`` attributes the steal to a victim
  target and thief lane (see docs/TUNING.md).

Events executed on a *worker process* of a process-backed target are
recorded worker-side against the worker's own ``perf_counter_ns``, shipped
back with each result, and re-stamped onto this process's clock using the
per-worker offset measured at spawn (see :mod:`repro.dist.remote_obs`), so
one merged timeline spans every process.

Clock convention
----------------
All trace timestamps come from :func:`now_ns` — ``time.perf_counter_ns()``,
the highest-resolution monotonic clock Python offers — so events recorded on
different threads interleave correctly in one timeline.  Deadline math in
the runtime (the logical barrier ``pump_until``, blocking waits) uniformly uses
``time.monotonic()``; the two are never mixed in one computation, and no
wall-clock (``time.time``) timestamps exist anywhere in the runtime.
"""

from __future__ import annotations

import enum
import time

__all__ = ["EventKind", "TraceEvent", "now_ns"]

#: The single clock source for trace timestamps (nanoseconds, monotonic).
now_ns = time.perf_counter_ns


class EventKind(enum.IntEnum):
    """One observable step in a region's (or barrier's) lifecycle."""

    REGION_SUBMIT = 1   # invoke_target_block entered for this region
    ENQUEUE = 2         # E.post(B): region appended to a target queue (a posted
                        # callable is wrapped into one first)
    DEQUEUE = 3         # an executor thread pulled the item off the queue
    EXEC_BEGIN = 4      # body started executing
    EXEC_END = 5        # body finished (arg: "completed" | "failed" | "cancelled")
    CANCEL = 6          # region withdrawn (shutdown / deadline / explicit)
    REJECT = 7          # bounded queue refused the post (arg: rejection policy)
    INLINE_ELIDE = 8    # thread-context awareness ran the block inline
    BARRIER_ENTER = 9   # logical barrier (pump_until) started pumping
    PUMP_STEAL = 10     # the barrier executed another queued item
    BARRIER_EXIT = 11   # logical barrier released
    TAG_WAIT_BEGIN = 12  # wait(tag) join started
    TAG_WAIT_END = 13    # wait(tag) join finished
    QUEUE_DEPTH = 14     # queue-depth sample (arg: depth) — counter track
    WORKER_SPAWN = 15    # process target started a worker (arg: pid)
    WORKER_EXIT = 16     # worker process stopped cleanly (arg: pid)
    WORKER_CRASH = 17    # worker process died unexpectedly (arg: exitcode)
    # Appended (never renumbered): these values cross process boundaries in
    # pickled worker events, so existing values are frozen.
    WORKER_CONNECT = 18     # cluster lane connected + clock-synced (arg: pid)
    WORKER_DISCONNECT = 19  # cluster lane lost its connection (arg: detail)

    @property
    def is_span_begin(self) -> bool:
        return self in (
            EventKind.EXEC_BEGIN, EventKind.BARRIER_ENTER, EventKind.TAG_WAIT_BEGIN
        )

    @property
    def is_span_end(self) -> bool:
        return self in (
            EventKind.EXEC_END, EventKind.BARRIER_EXIT, EventKind.TAG_WAIT_END
        )


class TraceEvent:
    """One recorded event, as :meth:`repro.obs.TraceSession.events` returns
    it — the only place one is built; the runtime's hot paths record plain
    tuples.

    Attributes
    ----------
    kind:    the :class:`EventKind`.
    ts:      nanoseconds from :func:`now_ns` (one clock for every thread).
    thread:  name of the emitting thread (stamped by its recorder).
    target:  virtual-target name, when the event concerns one.
    region:  the region's process-unique sequence number (``TargetRegion.seq``),
             or a synthetic id for GUI events; correlates the SUBMIT →
             ENQUEUE → DEQUEUE → EXEC chain and draws the async arrows.
    name:    human label (region name, ``file:line`` source stamp, tag, ...);
             an event of a region recorded without one gets its region's.
    arg:     kind-specific payload (queue depth, exec outcome, mode, ...).
    seq:     the event's append index in its recorder — stable sort
             tiebreak for events whose coarse-clock timestamps collide.
    """

    __slots__ = ("kind", "ts", "thread", "target", "region", "name", "arg", "seq")

    def __init__(
        self,
        kind: EventKind,
        ts: int,
        thread: str,
        target: str | None = None,
        region: int | None = None,
        name: str | None = None,
        arg: object = None,
        seq: int = 0,
    ) -> None:
        self.kind = kind
        self.ts = ts
        self.thread = thread
        self.target = target
        self.region = region
        self.name = name
        self.arg = arg
        self.seq = seq

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        bits = [self.kind.name, f"ts={self.ts}", f"thread={self.thread!r}"]
        if self.target is not None:
            bits.append(f"target={self.target!r}")
        if self.region is not None:
            bits.append(f"region={self.region}")
        if self.name is not None:
            bits.append(f"name={self.name!r}")
        if self.arg is not None:
            bits.append(f"arg={self.arg!r}")
        return f"<TraceEvent {' '.join(bits)}>"
