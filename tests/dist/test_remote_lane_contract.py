"""The `RemoteLane` contract, exercised by a third backend.

Loopback lanes (`tests/dist/loopback.py`: the worker is two threads running
the shared `repro.dist.worker` loops) prove a backend is a lane class —
nothing in `RemoteLaneTarget` knows about processes or sockets — and pin
the lease rule of the lane docstring: every operation on a lane runs with
that lane's lease held, whichever thread runs it.  A default-mode region
on an idle lane is shipped and awaited by the thread that dispatched it;
everything else goes through the lane's shipper.  The traced hard-stop test
pins the lane lifecycle on process and loopback lanes alike, shipper- or
caller-shipped: every lane that came up goes down exactly once.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import obs
from repro.core import PjRuntime
from repro.core.errors import AwaitTimeoutError, RegionFailedError, WorkerCrashedError
from repro.core.region import RegionState, TargetRegion
from repro.dist import worker_track
from repro.dist.remote_target import _POLL_TICK

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


def _unleased(target):
    """Lane operations whose thread did not hold the lane's lease."""
    return [
        (slot.index, op, thread.name)
        for slot in target._slots
        for op, thread, held in slot.calls
        if not held
    ]


def _threads_of(slot, op, since=0):
    return {thread for o, thread, _ in slot.calls[since:] if o == op}


def _open(rt, name, lanes, **kwargs):
    target = rt.register_target(LoopbackTarget(name, lanes, **kwargs))
    assert _wait_until(lambda: all(s.pid is not None for s in target._slots))
    return target


def test_a_backend_is_a_lane_class_and_every_operation_holds_its_lease():
    rt = PjRuntime()
    try:
        target = rt.register_target(LoopbackTarget("loop", 2, heartbeat_interval=0.02))
        for _ in range(2):
            # Regions longer than the result-wait poll tick, so the
            # mid-region liveness check runs (several times); then ten
            # heartbeat intervals of idle, so the idle check drains and
            # pings.  Shipped by the shippers (nowait) and by two callers
            # at once (default mode).
            regions = [
                rt.invoke_target_block(
                    "loop", TargetRegion(bodies.sleepy, 0.3, value=i), "nowait"
                )
                for i in range(2)
            ]
            assert [r.result(timeout=10.0) for r in regions] == [0, 1]
            callers = [
                threading.Thread(target=rt.invoke_target_block, args=(
                    "loop", TargetRegion(bodies.sleepy, 0.1, value=i),
                ))
                for i in range(2)
            ]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(10.0)
                assert not caller.is_alive()
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
    assert not _unleased(target), "lane operations ran without the lane's lease"
    seen = {op for slot in target._slots for op, _, _ in slot.calls}
    assert seen == set(LANE_OPERATIONS) - {"terminate"}


def test_a_default_region_on_an_idle_lane_ships_on_the_callers_thread():
    rt = PjRuntime()
    try:
        target = _open(rt, "direct", 1, heartbeat_interval=60.0)
        (slot,) = target._slots
        mark = len(slot.calls)
        assert rt.invoke_target_block("direct", TargetRegion(bodies.square, 7)).result() == 49
        mine = slot.calls[mark:]
        assert {"send", "recv"} <= {op for op, _, _ in mine}
        assert {thread for _, thread, _ in mine} == {threading.current_thread()}
        assert target.stats["posted"] == 1 and rt.counters["posted"] == 1
    finally:
        rt.shutdown(wait=False)
    assert not _unleased(target)


def test_queued_work_goes_through_the_shipper_in_fifo_order():
    rt = PjRuntime()
    try:
        target = _open(rt, "fifo", 1, heartbeat_interval=60.0)
        (slot,) = target._slots
        done = []
        first = TargetRegion(bodies.sleepy, 0.3, name="first")
        rt.invoke_target_block("fifo", first, "nowait")
        assert _wait_until(lambda: first.state is RegionState.RUNNING)
        mark = len(slot.calls)
        regions = [TargetRegion(bodies.square, i, name=f"r{i}") for i in range(3)]
        for region in [first, *regions]:
            region.add_done_callback(lambda r: done.append(r.name))
        for region in regions[:2]:
            rt.invoke_target_block("fifo", region, "nowait")
        # A default-mode region behind the backlog is posted, not shipped
        # ahead of it.
        behind = threading.Thread(target=rt.invoke_target_block, args=("fifo", regions[2]))
        behind.start()
        behind.join(10.0)
        assert not behind.is_alive()
        assert done == ["first", "r0", "r1", "r2"]
        assert _threads_of(slot, "send", mark) == {slot.thread}
        # The queue is empty again: the next default region is the caller's.
        mark = len(slot.calls)
        assert rt.invoke_target_block("fifo", TargetRegion(bodies.square, 5)).result() == 25
        assert _threads_of(slot, "send", mark) == {threading.current_thread()}
    finally:
        rt.shutdown(wait=False)


def test_a_direct_deadline_hands_the_region_back_to_the_lane(monkeypatch):
    grace, timeout = 0.2, 0.3
    monkeypatch.setattr(LoopbackTarget, "cancel_grace", grace)
    monkeypatch.setattr(LoopbackTarget, "max_restarts", 1)
    rt = PjRuntime()
    try:
        target = _open(rt, "late", 1, heartbeat_interval=60.0)
        (slot,) = target._slots
        mark = len(slot.calls)
        region = TargetRegion(bodies.stubborn_sleep, 30.0, name="stubborn")
        start = time.monotonic()
        with pytest.raises(AwaitTimeoutError):
            rt.invoke_target_block("late", region, timeout=timeout)
        # The extra 0.1 s is scheduling slack on a loaded host.
        assert time.monotonic() - start < timeout + _POLL_TICK + 0.1
        assert _threads_of(slot, "send", mark) == {threading.current_thread()}
        assert _threads_of(slot, "send_cancel", mark) == {threading.current_thread()}
        # The shipper, woken at the hand-back, reclaims the lane after the
        # grace and reopens it, although its heartbeat is a minute away.
        assert _wait_until(lambda: target.restart_count == 1 and slot.connected, 5.0)
        assert time.monotonic() - start < timeout + grace + 2 * _POLL_TICK + 0.1
        assert _threads_of(slot, "terminate", mark) == {slot.thread}
        with pytest.raises(RegionFailedError) as exc_info:
            region.result(timeout=5.0)
        assert isinstance(exc_info.value.__cause__, WorkerCrashedError)
        assert rt.invoke_target_block("late", TargetRegion(bodies.square, 3)).result() == 9
    finally:
        rt.shutdown(wait=False)
    assert not _unleased(target)


@pytest.fixture()
def traced():
    """Tracing on before the target exists, so every lane's up instant is
    recorded."""
    session = obs.enable()
    try:
        yield session
    finally:
        obs.disable()


def _dequeue_threads(session, target, region):
    return {
        e.thread for e in session.events()
        if e.kind.name == "DEQUEUE" and e.target == target and e.region == region.seq
    }


def test_a_worker_killed_under_a_direct_region_is_a_crash_and_the_lane_reopens(traced):
    rt = PjRuntime()
    try:
        target = rt.create_process_worker("solo", 1, heartbeat_interval=60.0)
        assert _wait_until(lambda: target._slots[0].pid is not None, 60.0)
        doomed = TargetRegion(bodies.hard_exit, name="doomed")
        with pytest.raises(RegionFailedError) as exc_info:
            rt.invoke_target_block("solo", doomed, timeout=30.0)
        assert isinstance(exc_info.value.__cause__, WorkerCrashedError)
        assert _dequeue_threads(traced, "solo", doomed) == {threading.current_thread().name}
        again = rt.invoke_target_block("solo", TargetRegion(bodies.square, 8), timeout=60.0)
        assert again.result() == 64
        assert target.restart_count == 1
    finally:
        rt.shutdown(wait=False)


@pytest.mark.parametrize("kind", ["process", "loopback", "direct"])
def test_a_hard_stop_closes_every_lane_it_opened(traced, kind):
    rt = PjRuntime()
    caller = None
    try:
        if kind == "process":
            target = rt.create_process_worker("hs", 2)
        else:
            target = rt.register_target(LoopbackTarget("hs", 2))
        assert _wait_until(lambda: all(s.pid is not None for s in target._slots))
        region = TargetRegion(bodies.sleepy, 5.0, name="in-flight")
        if kind == "direct":
            caller = threading.Thread(
                target=lambda: pytest.raises(RegionFailedError, rt.invoke_target_block,
                                             "hs", region),
                name="direct-caller",
            )
            caller.start()
        else:
            rt.invoke_target_block("hs", region, "nowait")
        assert _wait_until(lambda: region.state is RegionState.RUNNING)
        target.shutdown(wait=False)
        assert region.wait(15.0) and region.exception is not None
        for thread in [slot.thread for slot in target._slots] + [caller]:
            if thread is not None:
                thread.join(15.0)
                assert not thread.is_alive()
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
    if kind != "process":
        assert not _unleased(target), "lane operations ran without the lane's lease"
        ops = {op for slot in target._slots for op, _, _ in slot.calls}
        assert {"send_cancel", "terminate", "reap"} <= ops
    if kind == "direct":
        assert _dequeue_threads(traced, "hs", region) == {"direct-caller"}
        assert caller in set().union(*(_threads_of(s, "send_cancel") for s in target._slots))
