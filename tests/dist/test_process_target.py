"""ProcessTarget behaviour: scheduling modes, payload policy, backpressure."""

from __future__ import annotations

import time

import pytest

from repro.core import PjRuntime, virtual_target_create_process_worker
from repro.core.errors import (
    AwaitTimeoutError,
    QueueFullError,
    RegionFailedError,
    RuntimeStateError,
    SerializationError,
    TargetExistsError,
)
from repro.core.region import TargetRegion
from repro.dist import ProcessTarget
from repro.dist.wire import HAVE_CLOUDPICKLE

from . import bodies


class TestBasicExecution:
    def test_default_mode_returns_result(self, proc_rt):
        region = proc_rt.invoke_target_block("pool", TargetRegion(bodies.square, 7))
        assert region.result() == 49

    def test_args_and_kwargs_cross_the_wire(self, proc_rt):
        region = proc_rt.invoke_target_block(
            "pool", TargetRegion(bodies.sleepy, 0.0, value={"deep": [1, 2]})
        )
        assert region.result() == {"deep": [1, 2]}

    def test_nowait_returns_live_handle(self, proc_rt):
        handle = proc_rt.invoke_target_block(
            "pool", TargetRegion(bodies.square, 6), "nowait"
        )
        assert handle.result(timeout=30) == 36

    def test_name_as_and_wait_tag(self, proc_rt):
        for i in range(3):
            proc_rt.invoke_target_block(
                "pool", TargetRegion(bodies.square, i), "name_as", tag="batch"
            )
        proc_rt.wait_tag("batch", timeout=30)

    def test_regions_actually_run_in_other_processes(self, proc_rt):
        import os

        pids = {
            proc_rt.invoke_target_block(
                "pool", TargetRegion(bodies.worker_pid)
            ).result()
            for _ in range(3)
        }
        assert os.getpid() not in pids

    @pytest.mark.skipif(not HAVE_CLOUDPICKLE, reason="cloudpickle absent")
    def test_closures_work_with_cloudpickle(self, proc_rt):
        base = 100
        region = proc_rt.invoke_target_block("pool", lambda: base + 1)
        assert region.result() == 101


class TestFailurePolicy:
    def test_remote_exception_reraises_with_worker_traceback(self, proc_rt):
        with pytest.raises(RegionFailedError) as exc_info:
            proc_rt.invoke_target_block("pool", TargetRegion(bodies.boom, "ouch"))
        cause = exc_info.value.__cause__
        assert isinstance(cause, ValueError)
        assert "ouch" in str(cause)
        assert "bodies.py" in cause.remote_traceback

    def test_unpicklable_payload_rejected_with_guidance(self, proc_rt):
        import threading

        with pytest.raises(RegionFailedError) as exc_info:
            proc_rt.invoke_target_block(
                "pool", TargetRegion(bodies.sleepy, 0.0, value=threading.Lock())
            )
        assert isinstance(exc_info.value.__cause__, SerializationError)

    def test_unpicklable_result_becomes_typed_error(self, proc_rt):
        with pytest.raises(RegionFailedError) as exc_info:
            proc_rt.invoke_target_block("pool", TargetRegion(bodies.unpicklable_result))
        assert isinstance(exc_info.value.__cause__, SerializationError)

    def test_unpicklable_exception_degrades_not_hangs(self, proc_rt):
        from repro.core.errors import RemoteExecutionError

        with pytest.raises(RegionFailedError) as exc_info:
            proc_rt.invoke_target_block("pool", TargetRegion(bodies.raise_unpicklable))
        cause = exc_info.value.__cause__
        # cloudpickle can ship the local exception class; plain pickle cannot
        # and must degrade to the typed remote error -- either way no hang.
        assert isinstance(cause, Exception)
        if isinstance(cause, RemoteExecutionError):
            assert "cursed" in str(cause)

    def test_worker_failure_does_not_poison_the_pool(self, proc_rt):
        with pytest.raises(RegionFailedError):
            proc_rt.invoke_target_block("pool", TargetRegion(bodies.boom))
        region = proc_rt.invoke_target_block("pool", TargetRegion(bodies.square, 3))
        assert region.result() == 9


class TestDeadlines:
    def test_timeout_on_stuck_worker_fires_promptly(self, solo_rt):
        start = time.monotonic()
        with pytest.raises(AwaitTimeoutError):
            solo_rt.invoke_target_block(
                "solo", TargetRegion(bodies.stubborn_sleep), timeout=1.0
            )
        assert time.monotonic() - start < 20.0

    def test_lane_reclaimed_after_stuck_worker(self, solo_rt):
        with pytest.raises(AwaitTimeoutError):
            solo_rt.invoke_target_block(
                "solo", TargetRegion(bodies.stubborn_sleep), timeout=1.0
            )
        target = solo_rt.get_target("solo")
        region = solo_rt.invoke_target_block("solo", TargetRegion(bodies.square, 5))
        assert region.result(timeout=30) == 25
        assert target.restart_count >= 1

    def test_cooperative_cancellation_crosses_the_process_boundary(self, solo_rt):
        handle = solo_rt.invoke_target_block(
            "solo", TargetRegion(bodies.cooperative_loop), "nowait"
        )
        deadline = time.monotonic() + 10.0
        while not handle.state.name == "RUNNING" and time.monotonic() < deadline:
            time.sleep(0.01)
        handle.request_cancel()
        assert handle.wait(10.0)
        assert handle.result() == "cancelled"


class TestAffinityAndShape:
    def test_no_inline_elision_for_process_targets(self):
        assert ProcessTarget.supports_inline is False
        assert ProcessTarget.supports_pumping is False
        assert ProcessTarget.kind == "process"

    def test_pumping_refused_with_guidance(self, proc_rt):
        target = proc_rt.get_target("pool")
        with pytest.raises(RuntimeStateError):
            target.process_one()
        with pytest.raises(RuntimeStateError):
            target.drain()

    def test_describe_reports_process_taxonomy(self, proc_rt):
        text = proc_rt.get_target("pool").describe()
        assert "kind=process" in text
        assert "pool=2" in text
        assert "restarts=" in text

    def test_diagnostic_dump_includes_process_target(self, proc_rt):
        dump = proc_rt.diagnostic_dump()
        assert "kind=process" in dump


class TestRegistration:
    def test_api_helper_registers_and_duplicate_name_cleans_up(self):
        rt = PjRuntime()
        try:
            target = virtual_target_create_process_worker("dup", 1, runtime=rt)
            assert isinstance(target, ProcessTarget)
            with pytest.raises(TargetExistsError):
                virtual_target_create_process_worker("dup", 1, runtime=rt)
            region = rt.invoke_target_block("dup", TargetRegion(bodies.square, 2))
            assert region.result() == 4
        finally:
            rt.shutdown(wait=False)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ProcessTarget("bad", 0)
        with pytest.raises(ValueError):
            ProcessTarget("bad", 1, heartbeat_interval=0)


class TestBackpressure:
    def test_reject_policy_raises_queue_full(self):
        rt = PjRuntime()
        try:
            rt.create_process_worker(
                "tight", 1, queue_capacity=1, rejection_policy="reject"
            )
            # Occupy the single worker, then fill the single queue slot.
            busy = rt.invoke_target_block(
                "tight", TargetRegion(bodies.sleepy, 3.0), "nowait"
            )
            deadline = time.monotonic() + 10.0
            while busy.state.name == "PENDING" and time.monotonic() < deadline:
                time.sleep(0.01)
            rt.invoke_target_block(
                "tight", TargetRegion(bodies.square, 1), "nowait"
            )
            with pytest.raises(QueueFullError):
                for _ in range(50):
                    rt.invoke_target_block(
                        "tight", TargetRegion(bodies.square, 2), "nowait"
                    )
        finally:
            rt.shutdown(wait=False)


class TestSpawnStartMethod:
    def test_spawn_round_trip_crash_and_respawn(self):
        # spawn is the default only where there is no fork server, so this
        # keeps that path exercised on every platform that has one.
        rt = PjRuntime()
        try:
            target = rt.create_process_worker("spawned", 1, start_method="spawn")
            assert target._slots[0]._ctx.get_start_method() == "spawn"
            assert rt.invoke_target_block(
                "spawned", TargetRegion(bodies.square, 3), timeout=60.0
            ).result() == 9
            with pytest.raises(RegionFailedError) as exc_info:
                rt.invoke_target_block(
                    "spawned", TargetRegion(bodies.hard_exit, 7), timeout=60.0
                )
            assert exc_info.value.__cause__.exitcode == 7
            assert rt.invoke_target_block(
                "spawned", TargetRegion(bodies.square, 4), timeout=60.0
            ).result() == 16
            assert target.restart_count == 1
        finally:
            rt.shutdown(wait=False)
