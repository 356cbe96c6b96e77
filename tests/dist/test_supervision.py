"""Crash handling: WorkerCrashedError, lane reopens, restart budgets."""

from __future__ import annotations

import time

import pytest

from repro.core import PjRuntime
from repro.core.errors import (
    RegionFailedError,
    TargetShutdownError,
    WorkerCrashedError,
)
from repro.core.region import TargetRegion

from . import bodies


def _wait_until(predicate, timeout=15.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestMidRegionCrash:
    def test_os_exit_surfaces_worker_crashed_error_not_a_hang(self, solo_rt):
        start = time.monotonic()
        with pytest.raises(RegionFailedError) as exc_info:
            solo_rt.invoke_target_block(
                "solo", TargetRegion(bodies.hard_exit, 7), timeout=30.0
            )
        elapsed = time.monotonic() - start
        cause = exc_info.value.__cause__
        assert isinstance(cause, WorkerCrashedError)
        assert cause.exitcode == 7
        assert cause.target_name == "solo"
        assert elapsed < 15.0, f"crash detection took {elapsed:.1f}s"

    def test_pool_recovers_after_crash(self, solo_rt):
        with pytest.raises(RegionFailedError):
            solo_rt.invoke_target_block("solo", TargetRegion(bodies.hard_exit))
        region = solo_rt.invoke_target_block("solo", TargetRegion(bodies.square, 8))
        assert region.result(timeout=30) == 64
        assert solo_rt.get_target("solo").restart_count >= 1

    def test_crash_increments_crash_stats(self, solo_rt):
        with pytest.raises(RegionFailedError):
            solo_rt.invoke_target_block("solo", TargetRegion(bodies.hard_exit))
        assert solo_rt.get_target("solo").stats["worker_crashes"] >= 1


class TestIdleCrash:
    def test_shipper_respawns_idle_corpse_without_a_dispatch(self, solo_rt):
        target = solo_rt.get_target("solo")
        # Run something so the worker is definitely up, then note its pid.
        solo_rt.invoke_target_block("solo", TargetRegion(bodies.square, 1))
        slot = target._slots[0]
        old_pid = slot.pid
        slot.process.terminate()  # idle murder: no shipper is watching
        assert _wait_until(
            lambda: slot.process is not None
            and slot.process.is_alive()
            and slot.pid != old_pid
        ), "the idle lane's shipper did not respawn its worker"
        region = solo_rt.invoke_target_block("solo", TargetRegion(bodies.square, 4))
        assert region.result(timeout=30) == 16


class TestRestartBudget:
    def test_exhausted_budget_fails_backlog_and_refuses_posts(self):
        rt = PjRuntime()
        try:
            rt.create_process_worker("frail", 1, max_restarts=0)
            with pytest.raises(RegionFailedError) as exc_info:
                rt.invoke_target_block(
                    "frail", TargetRegion(bodies.hard_exit), timeout=30.0
                )
            assert isinstance(exc_info.value.__cause__, WorkerCrashedError)
            target = rt.get_target("frail")
            assert _wait_until(lambda: not target.alive), (
                "target should declare itself dead once every lane is disabled"
            )
            with pytest.raises(TargetShutdownError):
                target.post(TargetRegion(bodies.square, 1))
        finally:
            rt.shutdown(wait=False)

    def test_worker_crashed_error_carries_forensics(self):
        err = WorkerCrashedError(
            "pool", 2, pid=1234, exitcode=-9, region_name="r", detail="sigkill"
        )
        text = str(err)
        for fragment in ("pool", "worker 2", "1234", "-9", "'r'", "sigkill"):
            assert fragment in text
