"""The `RemoteLane` contract, exercised by a third backend.

Loopback lanes (`tests/dist/loopback.py`: the worker is two threads running
the shared `repro.dist.worker` loops) prove a backend is a lane class —
nothing in `RemoteLaneTarget` knows about processes or sockets — and pin
the ownership rule of the lane docstring: every operation on a lane runs
on that lane's shipper thread, so a lane needs no lock.  The traced
hard-stop test pins the lane lifecycle on process and loopback lanes
alike: every lane that came up goes down exactly once.
"""

from __future__ import annotations

import time

import pytest

from repro import obs
from repro.core import PjRuntime
from repro.core.region import RegionState, TargetRegion
from repro.dist import worker_track

from . import bodies
from .loopback import LANE_OPERATIONS, LoopbackTarget

_UP = {"WORKER_SPAWN", "WORKER_CONNECT"}
_DOWN = {"WORKER_EXIT", "WORKER_CRASH", "WORKER_DISCONNECT"}


def _wait_until(predicate, timeout=15.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def _strays(target):
    """Lane operations that ran on any thread but the lane's shipper."""
    return [
        (slot.index, op, thread.name)
        for slot in target._slots
        for op, thread in slot.calls
        if thread is not slot.thread
    ]


def test_a_backend_is_a_lane_class_and_only_its_shipper_touches_it():
    rt = PjRuntime()
    try:
        target = rt.register_target(LoopbackTarget("loop", 2, heartbeat_interval=0.02))
        for _ in range(2):
            # Regions longer than the result-wait poll tick, so the
            # shipper's mid-region liveness check runs (several times);
            # then ten heartbeat intervals of idle, so the idle check
            # drains and pings.
            regions = [
                rt.invoke_target_block(
                    "loop", TargetRegion(bodies.sleepy, 0.3, value=i), "nowait"
                )
                for i in range(2)
            ]
            assert [r.result(timeout=10.0) for r in regions] == [0, 1]
            time.sleep(0.2)
        # A forwarded cancellation rides the ctrl channel too.
        coop = TargetRegion(bodies.cooperative_loop, 30.0, name="coop")
        rt.invoke_target_block("loop", coop, "nowait")
        assert _wait_until(lambda: coop.state is RegionState.RUNNING)
        coop.request_cancel()
        assert coop.wait(10.0), "cancelled region hung"
        assert target.restart_count == 0
        assert target.stats["worker_crashes"] == 0
        assert "kind=loopback" in target.describe()
        target.shutdown(wait=True)
        assert not any(slot.connected for slot in target._slots)
    finally:
        rt.shutdown(wait=False)
    assert not _strays(target), "lane operations ran off the lane's shipper"
    seen = {op for slot in target._slots for op, _ in slot.calls}
    assert seen == set(LANE_OPERATIONS) - {"terminate"}


@pytest.fixture()
def traced():
    """Tracing on before the target exists, so every lane's up instant is
    recorded."""
    session = obs.enable()
    try:
        yield session
    finally:
        obs.disable()


@pytest.mark.parametrize("kind", ["process", "loopback"])
def test_a_hard_stop_closes_every_lane_it_opened(traced, kind):
    rt = PjRuntime()
    try:
        if kind == "process":
            target = rt.create_process_worker("hs", 2)
        else:
            target = rt.register_target(LoopbackTarget("hs", 2))
        assert _wait_until(lambda: all(s.pid is not None for s in target._slots))
        region = TargetRegion(bodies.sleepy, 5.0, name="in-flight")
        rt.invoke_target_block("hs", region, "nowait")
        assert _wait_until(lambda: region.state is RegionState.RUNNING)
        target.shutdown(wait=False)
        assert region.wait(15.0) and region.exception is not None
        for slot in target._slots:
            slot.thread.join(15.0)
            assert not slot.thread.is_alive()
    finally:
        rt.shutdown(wait=False)
    events = list(traced.events())
    for slot in target._slots:
        track = worker_track("hs", slot.index)
        kinds = [
            e.kind.name for e in events
            if e.target == track and e.kind.name in _UP | _DOWN
        ]
        assert len(kinds) == 2 and kinds[0] in _UP and kinds[1] in _DOWN, (
            f"lane {slot.index}: {kinds}"
        )
    if kind == "loopback":
        assert not _strays(target), "lane operations ran off the lane's shipper"
        assert {"send_cancel", "terminate", "reap"} <= {
            op for slot in target._slots for op, _ in slot.calls
        }
