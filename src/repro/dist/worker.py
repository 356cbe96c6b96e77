"""The remote end of a remote-backed virtual target.

A worker serves one lane over two channels, with one loop each — the same
two loops whether the channels are pipes into a child process
(:func:`worker_main`, the ``multiprocessing.Process`` entry point) or
accepted sockets on a cluster agent (:mod:`repro.cluster.agent`):

* :func:`task_loop` drives the task channel: answer the clock-sync
  handshake, then ``recv`` a :class:`~repro.dist.wire.TaskMsg`, rebuild
  the region, run it, ship exactly one :class:`~repro.dist.wire.ResultMsg`
  (result *or* exception, plus the worker-side trace events), repeat until
  :class:`~repro.dist.wire.StopMsg`;
* :func:`control_loop`, on its own thread, answers the heartbeat pings an
  idle lane's parent shipper sends and applies cooperative cancellation —
  it owns the ctrl channel, so both keep working while the task loop is
  deep inside a region body.

Regions execute as real :class:`~repro.core.region.TargetRegion` instances,
so worker-side user code keeps the full in-process contract:
``current_region()`` resolves, and ``current_region().cancel_token`` is the
*same token* the parent's :class:`CancelMsg` flips — a body written to poll
its token cooperates with cancellation identically on thread and process
targets.

Failure policy mirrors the thread-backed dispatch loop: nothing a region
body does may kill the worker.  Exceptions are captured and shipped;
unpicklable payloads/results/exceptions degrade to typed errors
(:class:`~repro.core.errors.SerializationError`,
:class:`~repro.core.errors.RemoteExecutionError`) rather than breaking the
protocol.  Only a torn channel (the parent died, or reclaimed the lane)
exits the loops.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Callable

from ..core.errors import SerializationError
from ..core.region import TargetRegion
from ..obs import EventKind
from ..obs.events import now_ns
from . import wire
from .arena import ArenaChannel

__all__ = ["WorkerConfig", "control_loop", "task_loop", "worker_main"]


class WorkerConfig:
    """Identity handed to a worker at spawn (picklable, version-stable)."""

    __slots__ = ("target_name", "worker_id")

    def __init__(self, target_name: str, worker_id: int) -> None:
        self.target_name = target_name
        self.worker_id = worker_id

    def __reduce__(self):
        return (WorkerConfig, (self.target_name, self.worker_id))


class _Current:
    """The region the main thread is executing, shared with the control
    thread under a lock so cancel requests can find its token."""

    __slots__ = ("_lock", "_seq", "_region")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._seq: int | None = None
        self._region: TargetRegion | None = None

    def set(self, seq: int, region: TargetRegion) -> None:
        with self._lock:
            self._seq, self._region = seq, region

    def clear(self) -> None:
        with self._lock:
            self._seq, self._region = None, None

    def cancel(self, seq: int) -> None:
        """Flip the cancel token iff *seq* is still the executing region."""
        with self._lock:
            if self._seq == seq and self._region is not None:
                self._region.cancel_token.set()


def control_loop(ctrl: Any, current: _Current) -> None:
    """Answer pings and deliver cancellations until the channel tears."""
    while True:
        try:
            msg = ctrl.recv()
        except (EOFError, OSError):
            return
        if isinstance(msg, wire.PingMsg):
            try:
                ctrl.send(wire.PongMsg(msg.sent_ns, os.getpid()))
            except (OSError, ValueError):
                return
        elif isinstance(msg, wire.CancelMsg):
            current.cancel(msg.seq)
        elif isinstance(msg, wire.StopMsg):
            return


def _error_result(seq: int, exc: BaseException, events: list[tuple]) -> wire.ResultMsg:
    blob, text, tb = wire.pack_exception(exc)
    return wire.ResultMsg(seq, False, None, blob, text, tb, events, 0)


def _run_task(msg: wire.TaskMsg, current: _Current) -> wire.ResultMsg:
    """Execute one task; always returns a ResultMsg (never raises).

    With ``msg.trace`` the result carries the task's EXEC span as
    ``(kind, ts, region, name, arg)`` records on this process's clock
    (:func:`repro.dist.remote_obs.merge_worker_events`); the name is None,
    as the parent's events of the region carry its label.
    """
    events: list[tuple] = []
    try:
        body, args, kwargs = wire.loads(msg.blob, what=f"payload of region {msg.name!r}")
    except Exception as exc:  # noqa: BLE001 - SerializationError or worse
        return _error_result(msg.seq, exc, events)
    msg.blob = None  # read: a receive buffer is freed before the body runs, not after

    region = TargetRegion(body, *args, **kwargs)
    # Adopt the parent-side identity so current_region(), traces and error
    # messages show the user's region, not a worker-local counter.
    region.name = msg.name
    region.source = msg.source
    current.set(msg.seq, region)
    try:
        if msg.trace:
            events.append((EventKind.EXEC_BEGIN.value, now_ns(), msg.seq, None, None))
        region.run()  # captures body exceptions on the region
        if msg.trace:
            outcome = "failed" if region.exception is not None else "completed"
            events.append((EventKind.EXEC_END.value, now_ns(), msg.seq, None, outcome))
    finally:
        current.clear()

    if region.exception is not None:
        return _error_result(msg.seq, region.exception, events)
    try:
        blob = wire.dumps_parts(region.result(), what=f"result of region {msg.name!r}")
    except Exception as exc:  # noqa: BLE001 - unpicklable result
        return _error_result(msg.seq, exc, events)
    return wire.ResultMsg(msg.seq, True, blob, None, None, None, events, 0)


def task_loop(
    task: Any, current: _Current, executed: Callable[[], None] | None = None
) -> None:
    """Serve one lane's task channel until a
    :class:`~repro.dist.wire.StopMsg` arrives or the parent disappears.

    ``executed()``, when given, fires after each task has run, before its
    result is shipped (the cluster agent's ``tasks_executed`` counter).
    """
    while True:
        try:
            msg = task.recv()
        except (EOFError, OSError):
            return  # parent went away (or reclaimed the lane)
        if isinstance(msg, wire.SyncMsg):
            # Clock-sync probe: answer as fast as possible so the parent's
            # round-trip midpoint estimate is tight.  The parent probes twice
            # when a lane opens — the first round absorbs worker start-up,
            # only the second (warm, pure channel latency) sets the offset.
            try:
                task.send(wire.SyncAck(now_ns(), os.getpid()))
            except (OSError, ValueError):
                return
            continue
        if isinstance(msg, wire.StopMsg):
            return
        if not isinstance(msg, wire.TaskMsg):
            continue  # unknown message from a newer parent: skip, stay alive
        result = _run_task(msg, current)
        if executed is not None:
            executed()
        try:
            try:
                task.send(result)
            except SerializationError as exc:
                # The channel refused the result (too large for a frame)
                # before writing any of it: that fails the region, not us.
                task.send(wire.ResultMsg(
                    msg.seq, False, None, *wire.pack_exception(exc),
                    result.events, result.events_dropped,
                ))
        except (OSError, ValueError, EOFError):
            return  # parent tore the channel mid-result


def worker_main(config: WorkerConfig, task_conn: Any, ctrl_conn: Any) -> None:
    """Entry point of one worker process (the ``Process`` target): the
    control loop on a daemon thread, the task loop on the main thread, each
    pipe behind the worker end of an :class:`ArenaChannel`."""
    current = _Current()
    label = f"worker {config.worker_id} of {config.target_name!r} (pid {os.getpid()})"
    threading.Thread(
        target=control_loop,
        args=(ArenaChannel(ctrl_conn, owner=False, label=f"control of {label}"), current),
        name=f"repro-dist-ctrl-{config.target_name}-{config.worker_id}",
        daemon=True,
    ).start()
    task = ArenaChannel(task_conn, owner=False, label=label)
    try:
        task_loop(task, current)
    finally:
        task.close()  # unmap with no view alive, not at interpreter teardown
