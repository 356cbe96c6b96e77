"""Tests for PjRuntime and Algorithm 1 (invoke_target_block)."""

import threading
import time

import pytest

from repro.core import (
    PjRuntime,
    RegionFailedError,
    RuntimeStateError,
    SchedulingMode,
    TargetExistsError,
    TargetRegion,
    UnknownTargetError,
)


class TestRegistry:
    def test_create_worker_registers(self, rt):
        rt.create_worker("w", 2)
        assert rt.has_target("w")
        assert rt.get_target("w").max_threads == 2

    def test_duplicate_name_rejected(self, rt):
        rt.create_worker("w", 1)
        with pytest.raises(TargetExistsError):
            rt.create_worker("w", 1)

    def test_duplicate_worker_is_shut_down_on_rejection(self, rt):
        rt.create_worker("w", 1)
        before = threading.active_count()
        with pytest.raises(TargetExistsError):
            rt.create_worker("w", 4)
        # The rejected pool must not leak its threads forever.
        deadline = time.monotonic() + 2
        while threading.active_count() > before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert threading.active_count() <= before

    def test_unknown_target(self, rt):
        with pytest.raises(UnknownTargetError):
            rt.get_target("nope")

    def test_first_target_becomes_default(self, rt):
        rt.create_worker("first", 1)
        rt.create_worker("second", 1)
        assert rt.default_target_var == "first"
        h = rt.invoke_target_block(None, lambda: "on-default")
        assert h.result() == "on-default"

    def test_unregister(self, rt):
        rt.create_worker("w", 1)
        rt.unregister_target("w")
        assert not rt.has_target("w")
        assert rt.default_target_var is None

    def test_target_names_sorted(self, rt):
        rt.create_worker("zeta", 1)
        rt.create_worker("alpha", 1)
        assert rt.target_names() == ["alpha", "zeta"]

    def test_register_edt_binds_calling_thread(self, rt):
        t = rt.register_edt("gui")
        assert t.contains()
        t._exit_member()

    def test_no_targets_no_default(self, rt):
        with pytest.raises(UnknownTargetError):
            rt.invoke_target_block(None, lambda: 1)


class TestAlgorithm1:
    """Each test is one path through the paper's Algorithm 1."""

    def test_line7_inline_when_member(self, worker_rt):
        # if T in E then B.exec() -- the region runs synchronously in T.
        def outer():
            inner_thread = []
            worker_rt.invoke_target_block(
                "worker", lambda: inner_thread.append(threading.current_thread())
            )
            return inner_thread[0], threading.current_thread()

        inner, outer_thread = worker_rt.invoke_target_block("worker", outer).result()
        assert inner is outer_thread

    def test_line8_posts_when_not_member(self, worker_rt):
        h = worker_rt.invoke_target_block("worker", threading.current_thread, "nowait")
        assert h.result(timeout=2) is not threading.current_thread()

    def test_lines10_12_nowait_returns_immediately(self, worker_rt):
        gate = threading.Event()
        t0 = time.monotonic()
        h = worker_rt.invoke_target_block("worker", gate.wait, "nowait")
        assert time.monotonic() - t0 < 0.5
        assert not h.done
        gate.set()
        h.wait(timeout=2)

    def test_line17_default_waits(self, worker_rt):
        done = []
        h = worker_rt.invoke_target_block(
            "worker", lambda: (time.sleep(0.05), done.append(1))[1]
        )
        # After return, the block has already finished.
        assert h.done
        assert done == [1]

    def test_default_reraises_body_exception(self, worker_rt):
        with pytest.raises(RegionFailedError) as ei:
            worker_rt.invoke_target_block("worker", lambda: 1 / 0)
        assert isinstance(ei.value.cause, ZeroDivisionError)

    def test_inline_path_reraises_for_waiting_modes(self, worker_rt):
        def outer():
            worker_rt.invoke_target_block("worker", lambda: 1 / 0)  # inline

        with pytest.raises(RegionFailedError):
            worker_rt.invoke_target_block("worker", outer).result()

    def test_nowait_does_not_raise_into_caller(self, worker_rt):
        h = worker_rt.invoke_target_block("worker", lambda: 1 / 0, "nowait")
        h.wait(timeout=2)  # failure is observable on the handle only
        with pytest.raises(RegionFailedError):
            h.result()

    def test_mode_accepts_strings_and_enums(self, worker_rt):
        for mode in ("default", SchedulingMode.DEFAULT):
            h = worker_rt.invoke_target_block("worker", lambda: 3, mode)
            assert h.result() == 3

    def test_name_as_requires_tag(self, worker_rt):
        with pytest.raises(RuntimeStateError):
            worker_rt.invoke_target_block("worker", lambda: 1, "name_as")

    def test_callable_auto_wrapped_in_region(self, worker_rt):
        h = worker_rt.invoke_target_block("worker", lambda: 11)
        assert isinstance(h, TargetRegion)
        assert h.result() == 11


class TestAwait:
    def test_await_without_membership_degrades_to_wait(self, worker_rt):
        # The encountering (test) thread belongs to no target: blocking wait.
        h = worker_rt.invoke_target_block("worker", lambda: 9, "await")
        assert h.done
        assert h.result() == 9

    def test_await_processes_other_events(self, edt_rt):
        """The logical barrier: while the EDT awaits an offloaded block, other
        events posted to the EDT run *before* the continuation (paper Table I
        and Algorithm 1 lines 13-16)."""
        edt = edt_rt.get_target("edt")
        order = []
        handler_done = threading.Event()

        def handler():
            def offloaded():
                time.sleep(0.1)
                order.append("offloaded")

            edt_rt.invoke_target_block("worker", offloaded, "await")
            order.append("continuation")
            handler_done.set()

        edt.post(TargetRegion(handler))
        time.sleep(0.02)
        edt.post(TargetRegion(lambda: order.append("other-event")))
        assert handler_done.wait(timeout=5)
        assert order == ["other-event", "offloaded", "continuation"]

    def test_nested_await(self, edt_rt):
        """An event processed during an await may itself await (re-entrant
        logical barrier)."""
        edt = edt_rt.get_target("edt")
        order = []
        done = threading.Event()

        def inner_handler():
            edt_rt.invoke_target_block(
                "worker", lambda: (time.sleep(0.02), order.append("inner-off"))[1], "await"
            )
            order.append("inner-cont")

        def outer_handler():
            edt.post(TargetRegion(inner_handler))
            edt_rt.invoke_target_block(
                "worker", lambda: (time.sleep(0.15), order.append("outer-off"))[1], "await"
            )
            order.append("outer-cont")
            done.set()

        edt.post(TargetRegion(outer_handler))
        assert done.wait(timeout=5)
        assert order == ["inner-off", "inner-cont", "outer-off", "outer-cont"]

    def test_await_reraises_body_exception(self, edt_rt):
        edt = edt_rt.get_target("edt")
        result = []

        def handler():
            try:
                edt_rt.invoke_target_block("worker", lambda: 1 / 0, "await")
            except RegionFailedError as e:
                result.append(type(e.cause))

        edt.post(TargetRegion(handler))
        deadline = time.monotonic() + 5
        while not result and time.monotonic() < deadline:
            time.sleep(0.01)
        assert result == [ZeroDivisionError]

    def test_worker_thread_awaits_edt_block(self, edt_rt):
        """A pool member that awaits a block on another target keeps draining
        its own pool queue meanwhile."""
        order = []
        done = threading.Event()

        def worker_handler():
            def on_edt():
                time.sleep(0.08)
                order.append("edt-part")

            edt_rt.invoke_target_block("edt", on_edt, "await")
            order.append("worker-cont")
            done.set()

        edt_rt.invoke_target_block("worker", worker_handler, "nowait")
        time.sleep(0.02)
        # Other pool work should proceed during the worker's await.
        edt_rt.invoke_target_block("worker", lambda: order.append("other-work"), "nowait")
        assert done.wait(timeout=5)
        assert order.index("other-work") < order.index("worker-cont")
        assert order.index("edt-part") < order.index("worker-cont")


class TestShutdown:
    def test_shutdown_clears_registry(self):
        rt = PjRuntime()
        rt.create_worker("a", 1)
        rt.start_edt("b")
        rt.shutdown()
        assert rt.target_names() == []
        assert rt.default_target_var is None

    def test_default_runtime_reset(self):
        from repro.core import default_runtime, reset_default_runtime

        rt1 = default_runtime()
        rt1.create_worker("tmp", 1)
        reset_default_runtime()
        rt2 = default_runtime()
        assert rt2 is not rt1
        assert not rt2.has_target("tmp")
        reset_default_runtime()
