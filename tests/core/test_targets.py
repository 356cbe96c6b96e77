"""Unit tests for virtual targets: WorkerTarget and EdtTarget."""

import threading
import time

import pytest

from repro.core import (
    EdtTarget,
    RuntimeStateError,
    TargetRegion,
    TargetShutdownError,
    WorkerTarget,
    current_target,
)


@pytest.fixture()
def worker():
    t = WorkerTarget("w", 3)
    yield t
    t.shutdown(wait=False)


@pytest.fixture()
def edt():
    t = EdtTarget("e")
    t.start_in_thread()
    yield t
    t.shutdown(wait=False)


class TestWorkerTarget:
    def test_pool_size(self, worker):
        deadline = time.monotonic() + 2
        while worker.member_count < 3 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert worker.member_count == 3

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            WorkerTarget("w", 0)

    def test_executes_posted_region(self, worker):
        r = TargetRegion(lambda: threading.current_thread().name)
        worker.post(r)
        assert r.result(timeout=2).startswith("pyjama-w-")

    def test_executes_plain_callable(self, worker):
        done = threading.Event()
        worker.post(done.set)
        assert done.wait(timeout=2)

    def test_contains_member_thread(self, worker):
        r = TargetRegion(lambda: worker.contains())
        worker.post(r)
        assert r.result(timeout=2) is True
        assert not worker.contains()  # the test thread is not a member

    def test_current_target_set_inside_pool(self, worker):
        r = TargetRegion(current_target)
        worker.post(r)
        assert r.result(timeout=2) is worker

    def test_parallel_execution_uses_multiple_threads(self, worker):
        barrier = threading.Barrier(3, timeout=2)
        names = []
        lock = threading.Lock()

        def body():
            barrier.wait()
            with lock:
                names.append(threading.current_thread().name)

        regions = [TargetRegion(body) for _ in range(3)]
        for r in regions:
            worker.post(r)
        for r in regions:
            r.result(timeout=2)
        assert len(set(names)) == 3

    def test_post_after_shutdown_raises(self, worker):
        worker.shutdown()
        with pytest.raises(TargetShutdownError):
            worker.post(TargetRegion(lambda: None))

    def test_shutdown_joins_threads(self):
        t = WorkerTarget("w2", 2)
        t.shutdown(wait=True)
        assert t.member_count == 0
        assert not t.alive

    def test_shutdown_idempotent(self, worker):
        worker.shutdown()
        worker.shutdown()  # no error

    def test_exception_in_region_does_not_kill_pool(self, worker):
        bad = TargetRegion(lambda: 1 / 0)
        worker.post(bad)
        bad.wait(timeout=2)
        good = TargetRegion(lambda: "still alive")
        worker.post(good)
        assert good.result(timeout=2) == "still alive"


class TestEdtTarget:
    def test_single_member(self, edt):
        assert edt.member_count == 1
        assert edt.edt_thread is not None
        assert edt.edt_thread.name == "pyjama-edt-e"

    def test_all_regions_run_on_same_thread(self, edt):
        regions = [TargetRegion(lambda: threading.current_thread()) for _ in range(5)]
        for r in regions:
            edt.post(r)
        threads = {r.result(timeout=2) for r in regions}
        assert threads == {edt.edt_thread}

    def test_register_current_thread(self):
        t = EdtTarget("manual")
        t.register_current_thread()
        assert t.contains()
        assert current_target() is t
        r = TargetRegion(lambda: 5)
        t.post(r)
        assert t.drain() == 1
        assert r.result() == 5
        t._exit_member()

    def test_double_bind_rejected(self, edt):
        with pytest.raises(RuntimeStateError):
            edt.register_current_thread()
        with pytest.raises(RuntimeStateError):
            edt.start_in_thread()

    def test_run_forever_requires_edt_thread(self, edt):
        with pytest.raises(RuntimeStateError):
            edt.run_forever()

    def test_fifo_ordering(self, edt):
        seen = []
        done = threading.Event()
        for i in range(10):
            edt.post(lambda i=i: seen.append(i))
        edt.post(done.set)
        assert done.wait(timeout=2)
        assert seen == list(range(10))


class TestPumping:
    def test_process_one_timeout_on_empty(self, worker):
        # The test thread may pump a foreign queue explicitly (used by
        # eventloop helpers); empty queue -> False after timeout.
        assert worker.process_one(timeout=0.01) is False

    def test_wakeup_does_not_count_as_work(self):
        t = EdtTarget("pump")
        t.register_current_thread()
        t.wakeup()
        assert t.process_one(timeout=0.01) is False
        t._exit_member()

    def test_pump_until_requires_membership(self, worker):
        with pytest.raises(RuntimeStateError):
            worker.pump_until(lambda: True)

    def test_pump_until_processes_work(self):
        t = EdtTarget("pump2")
        t.register_current_thread()
        seen = []
        t.post(lambda: seen.append(1))
        t.post(lambda: seen.append(2))
        t.pump_until(lambda: len(seen) == 2)
        assert seen == [1, 2]
        t._exit_member()

    def test_drain_counts_only_real_items(self):
        t = EdtTarget("drain")
        t.register_current_thread()
        t.post(lambda: None)
        t.wakeup()
        t.post(lambda: None)
        assert t.drain() == 2
        t._exit_member()

    def test_pending_reflects_queue(self, worker):
        # Block the whole pool, then measure queued backlog.
        gate = threading.Event()
        for _ in range(3):
            worker.post(gate.wait)
        time.sleep(0.05)
        for _ in range(4):
            worker.post(lambda: None)
        assert worker.pending >= 4
        gate.set()
