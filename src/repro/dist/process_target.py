"""`ProcessTarget`: a virtual target backed by supervised worker processes.

The process backend of :class:`~repro.dist.remote_target.RemoteLaneTarget`
(read that module for the architecture: shipper threads, health checks,
cancellation, trace merge).  What is particular to it lives here: a lane is
a child process running :func:`repro.dist.worker.worker_main` behind two
``multiprocessing`` pipes, so a dead worker has an *exit code*
(surfaced on ``WORKER_CRASH``/``WORKER_EXIT`` instants and
:class:`~repro.core.errors.WorkerCrashedError`), ``terminate()`` really
kills the region body, and a graceful stop joins the child.  Both pipes
are wrapped in an :class:`~repro.dist.arena.ArenaChannel`, so messages
cross them in the wire codec and payloads too large for the task pipe's
buffer cross in shared memory the parent end owns.

Start-up: by default a worker is forked from this interpreter's lane
server (:mod:`repro.dist.lane_server`), which the first process lane of an
interpreter starts (one interpreter boot, which also imports
:mod:`repro.dist.worker` and the few modules it uses, not the runtime) and
every later lane, restart and target reuses.  A lane's open is then one
``fork()`` plus the handshake: the worker imports nothing and, where
cloudpickle is installed and unlike a ``spawn`` worker, does not run the
parent's main module, so a value whose pickle names a ``__main__`` global by
reference fails its region with
:class:`~repro.core.errors.SerializationError`.  A forked worker runs with
``sys.path`` and the working directory the parent has when the lane opens,
but with the environment the lane server was started with: a variable the
parent sets or changes after its first process lane opened does not reach
later workers.
"""

from __future__ import annotations

import logging
import multiprocessing

from .arena import ArenaChannel
from .remote_target import RemoteLane, RemoteLaneTarget
from .worker import WorkerConfig, worker_main

__all__ = ["ProcessTarget", "DEFAULT_START_METHOD"]

_logger = logging.getLogger(__name__)

#: ``forkserver`` where the platform has one, else ``spawn``.  Both start
#: a worker from a fresh single-threaded interpreter, never by forking this
#: one: this runtime *is* threads (thread targets, EDTs, shippers), and a
#: forked copy of a threaded process can inherit a lock held mid-acquire by
#: a thread that does not exist in the child.  ``forkserver`` forks from
#: the lane server, such an interpreter that has already imported the
#: worker: it copies no held lock, and it boots (and imports) once per
#: parent instead of once per lane.  ``spawn`` and ``fork`` are
#: ``multiprocessing``'s own; ``fork`` stays selectable for single-threaded
#: embedders.
DEFAULT_START_METHOD = (
    "forkserver" if "forkserver" in multiprocessing.get_all_start_methods() else "spawn"
)


class _WorkerSlot(RemoteLane):
    """A lane whose worker is a child process behind two pipes."""

    __slots__ = ("process", "_ctx")

    #: Covers the lane server's boot and imports on an interpreter's first
    #: lane, and a whole interpreter start and the worker's imports under
    #: ``spawn``.
    open_timeout = 60.0

    def __init__(self, index: int, target_name: str, ctx) -> None:
        super().__init__(index, target_name)
        self.process: multiprocessing.process.BaseProcess | None = None
        self._ctx = ctx

    def open(self) -> None:
        label = f"worker {self.index} of {self.target_name!r}"
        (task, child_task), (ctrl, child_ctrl) = self._ctx.Pipe(), self._ctx.Pipe()
        self.task = ArenaChannel(task, owner=True, label=label)
        self.ctrl = ArenaChannel(ctrl, owner=True, label=f"control of {label}")
        proc = self._ctx.Process(
            target=worker_main,
            args=(WorkerConfig(self.target_name, self.index), child_task, child_ctrl),
            name=f"repro-dist-{self.target_name}-{self.index}",
            daemon=True,
        )
        try:
            proc.start()
        finally:
            # The child inherited its ends; closing ours makes a dead child
            # surface as EOFError on recv instead of an indefinite block.
            child_task.close()
            child_ctrl.close()
        self.process = proc

    def is_alive(self) -> bool:
        proc = self.process
        return proc is not None and proc.is_alive()

    def exit_label(self) -> str:
        proc = self.process
        return f"exitcode {proc.exitcode}" if proc is not None else "no process"

    def terminate(self) -> None:
        """Hard-kill the worker process (crash semantics follow)."""
        proc = self.process
        if proc is not None and proc.is_alive():
            try:
                proc.terminate()
            except Exception:  # noqa: BLE001 - already reaped
                pass

    def stop(self) -> None:
        """StopMsg on both pipes, then a bounded join."""
        proc = self.process
        if proc is None or not proc.is_alive():
            return
        super().stop()
        proc.join(timeout=5.0)
        if proc.is_alive():
            _logger.warning(
                "worker %d of target %r ignored StopMsg; terminating",
                self.index, self.target_name,
            )
            self.terminate()

    def reap(self) -> int | None:
        """Join a dead process, drop the pipes; returns the exit code."""
        exitcode = None
        proc, self.process = self.process, None
        if proc is not None:
            proc.join(timeout=1.0)
            exitcode = proc.exitcode
        super().reap()
        return exitcode


class ProcessTarget(RemoteLaneTarget):
    """A worker virtual target whose pool members are OS processes.

    Created by ``virtual_target_create_process_worker(tname, m)`` /
    :meth:`PjRuntime.create_process_worker`.  Parameters beyond the common
    target options and ``heartbeat_interval`` (supervision is
    :class:`~repro.dist.remote_target.RemoteLaneTarget`'s):

    max_workers:
        Pool size — one worker process (and one shipper thread) per lane.
    start_method:
        :data:`DEFAULT_START_METHOD` (``forkserver``: fork from the lane
        server, else ``spawn``: both safe under threads) / ``spawn`` /
        ``fork``.
    """

    kind = "process"

    def __init__(
        self,
        name: str,
        max_workers: int,
        *,
        queue_capacity: int | None = None,
        rejection_policy: str = "block",
        start_method: str | None = None,
        heartbeat_interval: float = 1.0,
    ) -> None:
        if max_workers < 1:
            raise ValueError(
                f"process target needs at least 1 worker, got {max_workers}"
            )
        self.max_workers = max_workers
        ctx = multiprocessing.get_context(start_method or DEFAULT_START_METHOD)
        if ctx.get_start_method() == "forkserver":
            # Imported here: it needs fd passing, which a platform without
            # a fork server (where the default is ``spawn``) may lack.
            from .lane_server import CONTEXT as ctx
        super().__init__(
            name,
            [_WorkerSlot(i, name, ctx) for i in range(max_workers)],
            queue_capacity=queue_capacity,
            rejection_policy=rejection_policy,
            heartbeat_interval=heartbeat_interval,
        )
