"""Tests for the ExecutorService baseline: a Java-named view over a
WorkerTarget, so its tasks follow the one target queue discipline."""

import threading

import pytest

from repro import obs
from repro.check.invariants import verify_events
from repro.core import RegionCancelledError, RegionFailedError, TargetShutdownError
from repro.core.targets import WorkerTarget
from repro.eventloop import ExecutorService
from repro.obs.events import EventKind


@pytest.fixture()
def pool():
    p = ExecutorService(3, name="test-pool")
    yield p
    p.shutdown_now()


class TestSubmit:
    def test_submit_returns_result(self, pool):
        assert pool.submit(lambda: 21 * 2).get(timeout=2) == 42

    def test_submit_with_args(self, pool):
        assert pool.submit(lambda a, b=1: a + b, 4, b=5).get(timeout=2) == 9

    def test_tasks_run_on_pool_threads(self, pool):
        f = pool.submit(lambda: threading.current_thread().name)
        assert f.get(timeout=2).startswith("pyjama-test-pool-")

    def test_parallel_threads(self, pool):
        barrier = threading.Barrier(3, timeout=2)
        futures = [pool.submit(barrier.wait) for _ in range(3)]
        for f in futures:
            f.get(timeout=2)  # would deadlock if not parallel

    def test_exception_surfaces_on_get(self, pool):
        f = pool.submit(lambda: 1 / 0)
        with pytest.raises(RegionFailedError):
            f.get(timeout=2)

    def test_execute_fire_and_forget(self, pool):
        done = threading.Event()
        pool.execute(done.set)
        assert done.wait(timeout=2)

    def test_queue_length_under_saturation(self, pool):
        # The backlog lives on the pool's WorkerTarget queue.
        gate = threading.Event()
        started = threading.Barrier(4, timeout=2)
        for _ in range(3):
            pool.submit(lambda: (started.wait(), gate.wait()))
        started.wait()
        for _ in range(5):
            pool.submit(lambda: None)
        assert pool.target.work_count() == 5
        gate.set()


class TestShutdown:
    def test_submit_after_shutdown_raises(self, pool):
        pool.shutdown()
        with pytest.raises(TargetShutdownError):
            pool.submit(lambda: None)

    def test_shutdown_drains_queue_first(self):
        p = ExecutorService(1)
        results = []
        for i in range(5):
            p.submit(lambda i=i: results.append(i))
        p.shutdown()  # drains the backlog and joins the thread
        assert results == [0, 1, 2, 3, 4]
        assert not any(t.is_alive() for t in p.target._threads)

    def test_shutdown_now_cancels_queued(self):
        p = ExecutorService(1)
        started, gate = threading.Event(), threading.Event()
        running = p.submit(lambda: (started.set(), gate.wait())[1])
        assert started.wait(timeout=2)
        queued = [p.submit(lambda: None) for _ in range(4)]
        p.shutdown_now()
        for f in queued:
            with pytest.raises(RegionCancelledError):
                f.get(timeout=2)
        gate.set()
        assert running.get(timeout=2) is True

    def test_rejects_zero_threads(self):
        with pytest.raises(ValueError):
            ExecutorService(0)


class TestOnePool:
    def test_pool_is_an_unregistered_worker_target(self):
        p = ExecutorService(2, name="view")
        try:
            assert type(p.target) is WorkerTarget
            assert p.target.name == "view" and p.target.pool_size == 2
        finally:
            p.shutdown()

    def test_tasks_land_on_the_verified_trace(self):
        obs.disable()
        obs.session().clear()
        session = obs.enable()
        try:
            p = ExecutorService(2, name="traced-pool")
            futures = [p.submit(lambda i=i: i * i) for i in range(4)]
            assert [f.get(timeout=2) for f in futures] == [0, 1, 4, 9]
            p.shutdown()
            obs.disable()
            events = session.events()
            kinds = {e.kind for e in events if e.target == "traced-pool"}
            assert {
                EventKind.ENQUEUE, EventKind.DEQUEUE,
                EventKind.EXEC_BEGIN, EventKind.EXEC_END,
            } <= kinds
            assert verify_events(events) == []
        finally:
            obs.disable()
            obs.session().clear()
