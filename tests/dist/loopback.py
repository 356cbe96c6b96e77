"""A third lane backend for the dist tests: in-process loopback lanes.

The worker is two threads running the shared `repro.dist.worker` loops over
`repro.cluster.transport.loopback_pair` channels.  Every lane operation is
recorded with the thread that ran it, and a lane can be opened *deaf*: its
control loop never runs, so pings go unanswered exactly as for a wedged
worker whose process is still alive.
"""

from __future__ import annotations

import threading

from repro.cluster.transport import loopback_pair
from repro.dist import RemoteLane, RemoteLaneTarget
from repro.dist.worker import WorkerConfig, _Current, control_loop, task_loop

#: The lane operations `LoopbackLane.calls` records.
LANE_OPERATIONS = (
    "open", "is_alive", "drain_control", "send_ping", "send_cancel",
    "terminate", "stop", "reap",
)


class LoopbackLane(RemoteLane):
    def __init__(self, index, target_name, deaf_opens=0):
        super().__init__(index, target_name, open_timeout=5.0)
        self.calls = []  # (operation, thread that ran it)
        self.deaf_opens = deaf_opens  # opens whose worker never answers ctrl

    def _record(self, operation):
        self.calls.append((operation, threading.current_thread()))

    def open(self):
        self._record("open")
        self.task, remote_task = loopback_pair()
        self.ctrl, remote_ctrl = loopback_pair()
        current = _Current()
        config = WorkerConfig(self.target_name, self.index)
        loops = [(task_loop, (remote_task, config, current))]
        if self.deaf_opens > 0:
            self.deaf_opens -= 1
        else:
            loops.append((control_loop, (remote_ctrl, current)))
        for loop, args in loops:
            threading.Thread(target=loop, args=args, daemon=True).start()

    def is_alive(self):
        self._record("is_alive")
        ctrl = self.ctrl
        return ctrl is not None and not ctrl.closed and not ctrl.eof

    def exit_label(self):
        return "loopback closed"

    def terminate(self):
        self._record("terminate")
        self.close_channels()

    def drain_control(self):
        self._record("drain_control")
        super().drain_control()

    def send_ping(self):
        self._record("send_ping")
        super().send_ping()

    def send_cancel(self, seq):
        self._record("send_cancel")
        super().send_cancel(seq)

    def stop(self):
        self._record("stop")
        super().stop()

    def reap(self):
        self._record("reap")
        return super().reap()


class LoopbackTarget(RemoteLaneTarget):
    """*lanes* loopback lanes.  The default heartbeat is one an 8 MiB pickle
    holding this process's GIL cannot miss."""

    kind = "loopback"

    def __init__(self, name, lanes, *, lane=LoopbackLane, heartbeat_interval=1.0,
                 heartbeat_misses=3, max_restarts=0, deaf_opens=0):
        super().__init__(
            name, [lane(i, name, deaf_opens) for i in range(lanes)],
            queue_capacity=None, rejection_policy="block",
            max_restarts=max_restarts, heartbeat_interval=heartbeat_interval,
            heartbeat_misses=heartbeat_misses, cancel_grace=5.0,
        )
