"""The `RemoteLane` contract, exercised by a third backend.

A lane strategy over in-process loopback transports: the worker is two
threads running the shared `repro.dist.worker` loops.  It proves a backend
is a lane class (nothing in `RemoteLaneTarget` knows about processes or
sockets) and pins the locking rule of the lane docstring: the ctrl channel
has one reader at a time, so every `is_alive()` runs under `slot.lock`.
"""

from __future__ import annotations

import threading

from repro.cluster.transport import loopback_pair
from repro.core import PjRuntime
from repro.core.region import TargetRegion
from repro.dist import RemoteLane, RemoteLaneTarget
from repro.dist.worker import WorkerConfig, _Current, control_loop, task_loop

from . import bodies


class _LoopbackLane(RemoteLane):
    def __init__(self, index, target_name):
        super().__init__(index, target_name, open_timeout=5.0)
        self.lock_held = []  # slot.lock ownership at each is_alive() call

    def open(self):
        self.task, remote_task = loopback_pair()
        self.ctrl, remote_ctrl = loopback_pair()
        current = _Current()
        config = WorkerConfig(self.target_name, self.index)
        for loop, args in (
            (task_loop, (remote_task, config, current)),
            (control_loop, (remote_ctrl, current)),
        ):
            threading.Thread(target=loop, args=args, daemon=True).start()

    def is_alive(self):
        self.lock_held.append(self.lock._is_owned())
        ctrl = self.ctrl
        return ctrl is not None and not ctrl.closed and not ctrl.eof

    def exit_label(self):
        return "loopback closed"

    def terminate(self):
        self.close_channels()


class _LoopbackTarget(RemoteLaneTarget):
    kind = "loopback"

    def __init__(self, name, lanes):
        super().__init__(
            name, [_LoopbackLane(i, name) for i in range(lanes)],
            queue_capacity=None, rejection_policy="block", max_restarts=0,
            heartbeat_interval=0.02, heartbeat_misses=3, cancel_grace=1.0,
        )


def test_a_backend_is_a_lane_class_and_liveness_reads_hold_the_lock():
    rt = PjRuntime()
    try:
        target = rt.register_target(_LoopbackTarget("loop", 2))
        # Longer than the result-wait poll tick, so the shipper's
        # mid-region liveness check runs too (several times), while the
        # supervisor sweeps the same lanes every 20 ms.
        regions = [
            rt.invoke_target_block(
                "loop", TargetRegion(bodies.sleepy, 0.3, value=i), "nowait"
            )
            for i in range(2)
        ]
        assert [r.result(timeout=10.0) for r in regions] == [0, 1]
        assert target.restart_count == 0
        assert target.stats["worker_crashes"] == 0
        assert "kind=loopback" in target.describe()
        for slot in target._slots:
            assert len(slot.lock_held) > 3
            assert all(slot.lock_held), "is_alive() ran without slot.lock"
        target.shutdown(wait=True)
        assert not any(slot.connected for slot in target._slots)
    finally:
        rt.shutdown(wait=False)
