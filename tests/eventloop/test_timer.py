"""Tests for the Swing-style Timer and SwingWorker cancellation."""

import threading
import time

import pytest

from repro.core import PjRuntime
from repro.eventloop import EventLoop, ExecutorService, SwingWorker, Timer, worker_from_callables


@pytest.fixture()
def loop():
    rt = PjRuntime()
    l = EventLoop(rt, "edt")
    yield l
    rt.shutdown(wait=False)


@pytest.fixture()
def pool():
    p = ExecutorService(2, name="timer-test")
    yield p
    p.shutdown_now()


class TestTimer:
    def test_repeating_timer_fires_on_edt(self, loop):
        threads = []
        t = Timer(loop, 0.02, lambda: threads.append(threading.current_thread()))
        t.start()
        deadline = time.monotonic() + 3
        while len(threads) < 3 and time.monotonic() < deadline:
            time.sleep(0.01)
        t.stop()
        assert len(threads) >= 3
        assert set(threads) == {loop.target.edt_thread}

    def test_one_shot(self, loop):
        hits = []
        t = Timer(loop, 0.02, lambda: hits.append(1), repeats=False)
        t.start()
        time.sleep(0.15)
        assert hits == [1]
        assert not t.is_running

    def test_stop_prevents_firing(self, loop):
        hits = []
        t = Timer(loop, 0.05, lambda: hits.append(1))
        t.start()
        t.stop()
        time.sleep(0.12)
        assert hits == []

    def test_initial_delay(self, loop):
        stamps = []
        t0 = time.perf_counter()
        t = Timer(
            loop, 0.02, lambda: stamps.append(time.perf_counter() - t0),
            repeats=False, initial_delay=0.1,
        )
        t.start()
        time.sleep(0.2)
        assert stamps and stamps[0] >= 0.09

    def test_restart(self, loop):
        hits = []
        t = Timer(loop, 0.03, lambda: hits.append(1), repeats=False)
        t.start()
        time.sleep(0.01)
        t.restart()  # pushes the firing out
        time.sleep(0.01)
        assert hits == []
        time.sleep(0.06)
        assert hits == [1]
        t.stop()

    def test_coalescing_under_blocked_edt(self, loop):
        """A busy EDT must not accumulate a timer-event backlog."""
        release = threading.Event()
        loop.invoke_later(lambda: release.wait(2))  # blocks the EDT
        t = Timer(loop, 0.01, lambda: None)
        t.start()
        time.sleep(0.3)  # ~30 expirations against a blocked EDT
        release.set()
        time.sleep(0.1)
        t.stop()
        assert t.fired >= 10
        assert t.coalesced >= t.fired - t.dispatched - 1
        assert t.dispatched < t.fired  # backlog was collapsed

    def test_invalid_delay(self, loop):
        with pytest.raises(ValueError):
            Timer(loop, 0.0, lambda: None)

    def test_stale_expiry_after_restart_does_not_fire(self, loop):
        """A timer thread that expired but lost the lock to restart() is
        stale: it must neither fire nor schedule a second chain."""
        t = Timer(loop, 10.0, lambda: None)
        t.start()
        try:
            t.restart()
            stale = threading.Thread(target=t._expire)  # not the live timer
            stale.start()
            stale.join(timeout=2)
            assert t.fired == 0
            pending = [
                th for th in threading.enumerate()
                if isinstance(th, threading.Timer) and th.function == t._expire
                and not th.finished.is_set()
            ]
            assert pending == [t._timer]
        finally:
            t.stop()

    def test_double_start_is_idempotent(self, loop):
        hits = []
        t = Timer(loop, 0.03, lambda: hits.append(1), repeats=False)
        t.start()
        t.start()
        time.sleep(0.1)
        assert hits == [1]


class TestSwingWorkerCancel:
    def test_cancel_before_run_withdraws_task(self, loop, pool):
        gate = threading.Event()
        # Occupy the whole pool so the worker's task stays queued.
        blockers = [pool.submit(gate.wait) for _ in range(2)]
        ran = []
        w = worker_from_callables(loop, background=lambda _w: ran.append(1), pool=pool)
        w.execute()
        assert w.cancel()
        assert w.is_cancelled
        gate.set()
        assert w.wait_done(timeout=2)  # done() still runs on the EDT
        time.sleep(0.05)
        assert ran == []
        for b in blockers:
            b.get(timeout=2)

    def test_cancel_running_is_cooperative(self, loop, pool):
        started = threading.Event()

        class W(SwingWorker):
            def do_in_background(self):
                started.set()
                while not self.is_cancelled:
                    time.sleep(0.005)
                return "bailed-out"

        w = W(loop, pool)
        w.execute()
        assert started.wait(timeout=2)
        assert not w.cancel()  # already running: not withdrawn...
        assert w.is_cancelled  # ...but flagged
        assert w.get(timeout=2) == "bailed-out"

    def test_cancel_before_execute(self, loop, pool):
        w = worker_from_callables(loop, background=lambda _w: None, pool=pool)
        assert w.cancel()
        assert w.is_cancelled
