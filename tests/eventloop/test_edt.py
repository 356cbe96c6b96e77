"""Tests for the Swing-like EventLoop."""

import threading
import time

import pytest

from repro.core import PjRuntime
from repro.eventloop import Event, EventLoop


@pytest.fixture()
def loop():
    rt = PjRuntime()
    l = EventLoop(rt, "edt")
    yield l
    rt.shutdown(wait=False)


class TestListeners:
    def test_handler_receives_event(self, loop):
        seen = []
        loop.on("click", seen.append)
        loop.fire("click", payload=42)
        assert loop.wait_all_finished()
        assert len(seen) == 1
        assert seen[0].name == "click"
        assert seen[0].payload == 42

    def test_multiple_handlers_in_registration_order(self, loop):
        order = []
        loop.on("e", lambda ev: order.append("first"))
        loop.on("e", lambda ev: order.append("second"))
        loop.fire("e")
        assert loop.wait_all_finished()
        assert order == ["first", "second"]

    def test_off_removes_handler(self, loop):
        seen = []
        loop.on("e", seen.append)
        loop.off("e", seen.append)
        loop.fire("e")
        assert loop.wait_all_finished()
        assert seen == []

    def test_unknown_event_is_noop(self, loop):
        loop.fire("nobody-listens")
        assert loop.wait_all_finished()

    def test_handlers_run_on_edt(self, loop):
        threads = []
        loop.on("e", lambda ev: threads.append(threading.current_thread()))
        loop.fire("e")
        assert loop.wait_all_finished()
        assert threads == [loop.target.edt_thread]

    def test_events_dispatch_fifo(self, loop):
        seen = []
        loop.on("e", lambda ev: seen.append(ev.payload))
        for i in range(20):
            loop.fire("e", payload=i)
        assert loop.wait_all_finished()
        assert seen == list(range(20))


class TestRecords:
    def test_sync_handler_autocompletes_record(self, loop):
        loop.on("e", lambda ev: time.sleep(0.02))
        rec = loop.fire("e")
        assert loop.wait_all_finished()
        assert rec.dispatch_latency >= 0.0
        assert rec.response_time >= 0.02

    def test_deferred_handler_owns_completion(self, loop):
        handled = threading.Event()

        @EventLoop.defer_completion
        def handler(ev):
            handled.set()  # async handler: completion happens later

        loop.on("e", handler)
        rec = loop.fire("e")
        assert handled.wait(timeout=2)
        time.sleep(0.02)
        assert rec.finished_at is None  # not auto-stamped
        rec.mark_finished()
        assert rec.response_time is not None

    def test_response_time_accumulates_queueing(self, loop):
        """Back-to-back slow events queue behind each other: later events see
        larger response times (the paper's Figure 1(i) effect)."""
        loop.on("slow", lambda ev: time.sleep(0.05))
        recs = [loop.fire("slow") for _ in range(3)]
        assert loop.wait_all_finished()
        rts = [r.response_time for r in recs]
        assert rts[0] < rts[1] < rts[2]
        assert rts[2] >= 0.15 - 0.01

    def test_clear_records(self, loop):
        loop.fire("e")
        assert loop.wait_all_finished()
        loop.clear_records()
        assert loop.records == []

    def test_mark_started_idempotent(self):
        rec = Event("x")
        from repro.eventloop import EventRecord

        r = EventRecord(rec)
        r.mark_started()
        first = r.started_at
        time.sleep(0.01)
        r.mark_started()
        assert r.started_at == first


class TestInvoke:
    def test_invoke_later_runs_on_edt(self, loop):
        seen = []
        loop.invoke_later(lambda: seen.append(threading.current_thread()))
        deadline = time.monotonic() + 2
        while not seen and time.monotonic() < deadline:
            time.sleep(0.005)
        assert seen == [loop.target.edt_thread]

    def test_invoke_and_wait_returns_value(self, loop):
        assert loop.invoke_and_wait(lambda: 7 * 6) == 42

    def test_invoke_and_wait_from_edt_runs_inline(self, loop):
        # Context awareness replaces Swing's invokeAndWait-deadlock.
        result = loop.invoke_and_wait(lambda: loop.invoke_and_wait(lambda: "nested"))
        assert result == "nested"

    def test_is_edt(self, loop):
        assert not loop.is_edt()
        assert loop.invoke_and_wait(loop.is_edt) is True


def test_parallel_in_a_handler_leaves_the_edt_current():
    """The master of an OpenMP team joins the team's target as a guest: on
    the EDT, current_target() stays the EDT before, inside and after the
    region, so a later await still pumps the EDT's queue."""
    import repro.openmp as omp
    from repro.core import current_target

    rt = PjRuntime()
    loop = EventLoop(rt, "edt")
    rt.create_worker("w", 1)
    seen = {}
    probed = threading.Event()

    def body(tid):
        if tid == 0:
            seen["during"] = current_target()
            omp.task(lambda: None)
            seen["ran"] = omp.taskwait()

    def offloaded():
        loop.fire("probe")  # runs only if the awaiting EDT pumps its queue
        return probed.wait(5)

    def handler(event):
        seen["before"] = current_target()
        omp.parallel(body, num_threads=2)
        seen["after"] = current_target()
        seen["pumped"] = rt.invoke_target_block("w", offloaded, "await").result()

    loop.on("click", handler)
    loop.on("probe", lambda event: probed.set())
    try:
        loop.fire("click")
        assert loop.wait_all_finished()
        assert seen["before"] is seen["during"] is seen["after"] is loop.target
        assert isinstance(seen["ran"], int)
        assert seen["pumped"] is True
    finally:
        rt.shutdown(wait=False)
