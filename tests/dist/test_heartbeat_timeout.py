"""Idle health checks: slow-but-alive vs wedged vs dead.

While its queue stays empty, a lane's shipper runs
``RemoteLaneTarget._idle_check`` every ``heartbeat_interval`` (the ``idle=``
hook of ``_serve_queue``) and then ``ready`` (``_ensure_worker``) before it
dequeues again.  The unit half drives that pair over scripted fake slots,
so every row of the decision table runs deterministically — no timing, no
real processes.  The integration half proves the user-visible contract on
real lanes: a busy worker is never pinged, so it is never judged silent
however long its region runs or however many regions run back to back (a
stall must not become a :class:`WorkerCrashedError`); an idle worker that
answers no pings is replaced; and a transport that dies mid-region fails
the region promptly — crash and stall stay distinguishable.
"""

from __future__ import annotations

import time

import pytest

from repro.core import PjRuntime
from repro.core.errors import RegionFailedError, WorkerCrashedError
from repro.core.region import RegionState, TargetRegion
from repro.dist import ProcessTarget, RemoteLaneTarget

from . import bodies
from .loopback import LoopbackTarget

MISSES = 2


class FakeSlot:
    """Scripted implementation of the lane interface the idle check and
    ``ready`` consume; counts every IO they ask of it."""

    index = 0
    noun = "worker"
    where = ""

    def __init__(self, *, connected=True, alive=True, unanswered=0,
                 pongs_pending=0, disabled=False):
        self.pid = 4242
        self.spawns = 1
        self.disabled = disabled
        self.connected = connected
        self.unanswered_pings = unanswered
        self._alive = alive
        self._pongs = pongs_pending
        self.drains = self.pings = self.terminations = self.respawns = 0

    def is_alive(self):
        return self.connected and self._alive

    def drain_control(self):
        self.drains += 1
        if self._pongs:
            self._pongs -= 1
            self.unanswered_pings = 0

    def send_ping(self):
        self.pings += 1
        self.unanswered_pings += 1

    def exit_label(self):
        return "scripted death"

    def terminate(self):
        self.terminations += 1
        self._alive = False

    def reap(self):
        self.connected = False
        return None

    def open(self):
        self.respawns += 1
        self.connected = self._alive = True


class FakeTarget(RemoteLaneTarget):
    """The real idle check and ``ready`` with no thread behind them: built
    with no lanes, so no shipper starts, then handed one fake slot."""

    kind = "fake"
    heartbeat_misses = MISSES

    def __init__(self, slot):
        super().__init__(
            "fake", [], queue_capacity=None, rejection_policy="block",
            heartbeat_interval=0.1,
        )
        self._slots = [slot]

    def _open_lane(self, slot):
        slot.open()  # a scripted worker has no clock to handshake with
        slot.unanswered_pings = 0


def idle_ticks(slot, n=1) -> FakeSlot:
    """*n* idle intervals of the slot's shipper: the hook, then ``ready``."""
    target = FakeTarget(slot)
    for _ in range(n):
        assert target._idle_check(slot) is False  # it never finds work
        target._ensure_worker(slot)
    return slot


class TestSweepDecisionTable:
    """One row per kind of idle lane, each through one or more idle ticks."""

    def test_healthy_idle_slot_is_only_pinged(self):
        slot = idle_ticks(FakeSlot())
        assert (slot.pings, slot.terminations, slot.respawns) == (1, 0, 0)
        assert slot.unanswered_pings == 1

    def test_pending_pong_resets_the_silence_clock(self):
        # Slow-but-alive: the pong was in flight, not missing.  The check
        # must drain control *before* judging silence.
        slot = idle_ticks(FakeSlot(unanswered=MISSES, pongs_pending=1))
        assert (slot.pings, slot.terminations, slot.respawns) == (1, 0, 0)
        assert slot.unanswered_pings == 1

    def test_idle_wedged_slot_is_terminated_and_respawned(self):
        # A worker that never answers: MISSES pings, then the next idle
        # tick terminates it and ``ready`` opens a fresh one.
        slot = idle_ticks(FakeSlot(), MISSES)
        assert (slot.pings, slot.terminations, slot.respawns) == (MISSES, 0, 0)
        idle_ticks(slot)
        assert (slot.pings, slot.terminations, slot.respawns) == (MISSES, 1, 1)
        assert slot.unanswered_pings == 0 and slot.is_alive()

    def test_idle_corpse_is_respawned_without_terminate(self):
        slot = idle_ticks(FakeSlot(alive=False))
        assert (slot.drains, slot.pings, slot.terminations) == (0, 0, 0)
        assert slot.respawns == 1

    def test_disabled_and_disconnected_slots_are_skipped(self):
        # No IO from the check.  Reopening a lane that is down is
        # ``ready``'s job: it reopens a disconnected lane, never a disabled
        # one.
        for slot, reopened in (
            (FakeSlot(disabled=True, connected=False), 0),
            (FakeSlot(connected=False), 1),
        ):
            idle_ticks(slot)
            assert (slot.drains, slot.pings, slot.terminations) == (0, 0, 0)
            assert slot.respawns == reopened


def _wait_until(predicate, timeout=15.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


@pytest.fixture()
def quiet_rt():
    """1-worker process target whose idle checks never fire during the test
    (60s interval)."""
    runtime = PjRuntime()
    runtime.create_process_worker("quiet", 1, heartbeat_interval=60.0)
    yield runtime
    runtime.shutdown(wait=False)


class TestRealTransport:
    def test_stalled_busy_worker_survives_idle_checks(self, monkeypatch):
        # A region sixteen heartbeat intervals long, then idle checks every
        # 50 ms with a budget of one unanswered ping: the lane is pinged
        # only while idle, so the long region is never judged silence.
        monkeypatch.setattr(ProcessTarget, "heartbeat_misses", 1)
        rt = PjRuntime()
        try:
            target = rt.create_process_worker("hb", 1, heartbeat_interval=0.05)
            region = TargetRegion(bodies.sleepy, 0.8, name="slow")
            rt.invoke_target_block("hb", region, "nowait")
            slot = target._slots[0]
            assert _wait_until(lambda: region.state is RegionState.RUNNING)
            pid = slot.pid
            assert region.result(timeout=30.0) == 0.8
            time.sleep(0.5)
            assert target.restart_count == 0
            assert target.stats["worker_crashes"] == 0
            assert slot.pid == pid
        finally:
            rt.shutdown(wait=False)

    def test_back_to_back_regions_then_idle_cause_no_reconnect(self, monkeypatch):
        # Busy for ten miss budgets with no pause long enough for an idle
        # check, then idle: silence is counted in unanswered pings, and a
        # busy lane sends none, so nothing stale is judged when it idles.
        monkeypatch.setattr(ProcessTarget, "heartbeat_misses", MISSES)
        rt = PjRuntime()
        try:
            target = rt.create_process_worker("b2b", 1, heartbeat_interval=0.05)
            payload = bytes(64)
            assert rt.invoke_target_block(
                "b2b", TargetRegion(bytes, payload)
            ).result() == payload
            pid = target._slots[0].pid
            deadline = time.monotonic() + 10 * MISSES * 0.05
            while time.monotonic() < deadline:
                assert rt.invoke_target_block(
                    "b2b", TargetRegion(bytes, payload)
                ).result() == payload
            time.sleep(0.3)
            assert target.restart_count == 0
            assert target.stats["worker_crashes"] == 0
            assert target._slots[0].pid == pid
        finally:
            rt.shutdown(wait=False)

    def test_idle_wedged_worker_is_replaced(self, monkeypatch):
        # The first worker's control loop never runs: alive, but deaf to
        # pings.  Its shipper terminates it after two unanswered pings and
        # reopens the lane; the second worker answers and stays.
        monkeypatch.setattr(LoopbackTarget, "heartbeat_misses", MISSES)
        monkeypatch.setattr(LoopbackTarget, "max_restarts", 1)
        rt = PjRuntime()
        try:
            target = rt.register_target(LoopbackTarget(
                "deaf", 1, heartbeat_interval=0.05, deaf_opens=1,
            ))
            slot = target._slots[0]
            assert _wait_until(
                lambda: target.restart_count == 1 and slot.connected
            ), "the wedged worker was not replaced"
            assert target.stats["worker_crashes"] == 1
            region = rt.invoke_target_block("deaf", TargetRegion(bodies.square, 6))
            assert region.result(timeout=10.0) == 36
            time.sleep(0.3)  # six more idle checks, all answered
            assert target.restart_count == 1
            assert target.alive
        finally:
            rt.shutdown(wait=False)

    def test_dead_transport_mid_region_fails_fast_without_heartbeat(
        self, quiet_rt
    ):
        # Crash detection must not wait for a heartbeat miss: the shipper
        # sees the dead transport within its own poll tick.
        target = quiet_rt.get_target("quiet")
        region = TargetRegion(bodies.sleepy, 30.0, name="doomed")
        quiet_rt.invoke_target_block("quiet", region, "nowait")
        slot = target._slots[0]
        assert _wait_until(lambda: region.state is RegionState.RUNNING), (
            "region never started"
        )
        start = time.monotonic()
        slot.process.terminate()
        with pytest.raises(RegionFailedError) as exc_info:
            region.result(timeout=30.0)
        elapsed = time.monotonic() - start
        assert isinstance(exc_info.value.__cause__, WorkerCrashedError)
        assert elapsed < 15.0, f"crash detection took {elapsed:.1f}s"
