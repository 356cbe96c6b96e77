"""Tests for the SwingWorker baseline (paper Figure 3 semantics)."""

import threading
import time

import pytest

from repro.core import PjRuntime
from repro.eventloop import (
    MAX_WORKER_THREADS,
    EventLoop,
    ExecutorService,
    SwingWorker,
    swing_worker_pool,
    worker_from_callables,
)


@pytest.fixture()
def loop():
    rt = PjRuntime()
    l = EventLoop(rt, "edt")
    yield l
    rt.shutdown(wait=False)


@pytest.fixture()
def pool():
    p = ExecutorService(4, name="sw-test")
    yield p
    p.shutdown_now()


class TestContract:
    def test_background_runs_off_edt(self, loop, pool):
        class W(SwingWorker):
            def do_in_background(self):
                return threading.current_thread()

        w = W(loop, pool)
        w.execute()
        assert w.get(timeout=2) is not loop.target.edt_thread

    def test_done_runs_on_edt_after_background(self, loop, pool):
        order = []

        class W(SwingWorker):
            def do_in_background(self):
                order.append(("bg", threading.current_thread()))

            def done(self):
                order.append(("done", threading.current_thread()))

        w = W(loop, pool)
        w.execute()
        assert w.wait_done(timeout=2)
        assert [tag for tag, _ in order] == ["bg", "done"]
        assert order[1][1] is loop.target.edt_thread

    def test_process_runs_on_edt(self, loop, pool):
        threads = []

        class W(SwingWorker):
            def do_in_background(self):
                self.publish(1)
                time.sleep(0.05)

            def process(self, chunks):
                threads.append(threading.current_thread())

        w = W(loop, pool)
        w.execute()
        assert w.wait_done(timeout=2)
        assert threads == [loop.target.edt_thread]

    def test_publish_coalesces(self, loop, pool):
        batches = []
        release = threading.Event()

        class W(SwingWorker):
            def do_in_background(self):
                for i in range(5):
                    self.publish(i)
                release.set()
                time.sleep(0.05)

            def process(self, chunks):
                batches.append(chunks)

        # Keep the EDT busy while the publishes happen so they pile up.
        loop.invoke_later(lambda: release.wait(timeout=2))
        w = W(loop, pool)
        w.execute()
        assert w.wait_done(timeout=5)
        published = [x for batch in batches for x in batch]
        assert published == [0, 1, 2, 3, 4]
        assert len(batches) < 5  # at least some coalescing happened

    def test_get_returns_background_value(self, loop, pool):
        w = worker_from_callables(loop, background=lambda _w: "payload", pool=pool)
        w.execute()
        assert w.get(timeout=2) == "payload"

    def test_done_runs_even_if_background_raises(self, loop, pool):
        done_called = threading.Event()

        class W(SwingWorker):
            def do_in_background(self):
                raise ValueError("boom")

            def done(self):
                done_called.set()

        w = W(loop, pool)
        w.execute()
        assert done_called.wait(timeout=2)
        from repro.core import RegionFailedError

        with pytest.raises(RegionFailedError):
            w.get(timeout=2)

    def test_execute_twice_rejected(self, loop, pool):
        w = worker_from_callables(loop, background=lambda _w: None, pool=pool)
        w.execute()
        with pytest.raises(RuntimeError):
            w.execute()

    def test_get_before_execute_rejected(self, loop, pool):
        w = worker_from_callables(loop, background=lambda _w: None, pool=pool)
        with pytest.raises(RuntimeError):
            w.get()


class TestSharedPool:
    def test_shared_pool_is_ten_threads(self):
        # The paper: "The underlying implementation of SwingWorker maintains
        # a default 10-thread-max thread pool."
        assert MAX_WORKER_THREADS == 10
        pool = swing_worker_pool()
        assert pool.target.pool_size == 10

    def test_shared_pool_reused(self):
        assert swing_worker_pool() is swing_worker_pool()

    def test_shared_pool_recreated_after_shutdown(self):
        pool = swing_worker_pool()
        pool.shutdown()
        fresh = swing_worker_pool()
        assert fresh is not pool
        assert fresh.submit(lambda: 1).get(timeout=2) == 1
