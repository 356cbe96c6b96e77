"""Dequeue batching: FIFO order, sentinel barriers, and the batch bound."""

from __future__ import annotations

import queue
import threading
import time

import pytest

from repro.core.runtime import PjRuntime
from repro.core.targets import _SHUTDOWN, _TargetQueue, WorkerTarget


def test_get_batch_preserves_fifo_and_respects_bound():
    q = _TargetQueue("t")
    for i in range(10):
        q.put(i)
    assert q.get_batch(4) == [0, 1, 2, 3]
    assert q.get_batch(4) == [4, 5, 6, 7]
    assert q.get_batch(4) == [8, 9]
    assert q.work_count() == 0
    with pytest.raises(queue.Empty):
        q.get_batch(4, timeout=0.01)


def test_get_batch_stops_before_a_sentinel_and_returns_it_alone():
    q = _TargetQueue("t")
    q.put(1)
    q.put(2)
    q.put_shutdown()
    q.put(3)
    # Work queued before the sentinel comes out first, never alongside it.
    assert q.get_batch(8) == [1, 2]
    assert q.get_batch(8) == [_SHUTDOWN]
    assert q.get_batch(8) == [3]


def test_get_batch_frees_bounded_capacity_for_blocked_posters():
    q = _TargetQueue("t", capacity=2)
    q.put(1)
    q.put(2)
    landed = threading.Event()

    def poster() -> None:
        q.put(3, block=True, timeout=5.0)
        landed.set()

    t = threading.Thread(target=poster, daemon=True)
    t.start()
    time.sleep(0.05)
    assert not landed.is_set()
    assert q.get_batch(2) == [1, 2]
    assert landed.wait(5.0)
    t.join()


def test_worker_executes_batches_in_post_order():
    target = WorkerTarget("batcher", 1, batch_max=8)
    try:
        gate = threading.Event()
        order: list[int] = []
        done = threading.Event()
        target.post(gate.wait)  # park the lane so a real backlog builds

        def make(i: int):
            def body() -> None:
                order.append(i)
                if i == 19:
                    done.set()
            return body

        for i in range(20):
            target.post(make(i))
        gate.set()
        assert done.wait(5.0)
        assert order == list(range(20))
    finally:
        target.shutdown(wait=True)


def test_batch_max_validation():
    with pytest.raises(ValueError):
        WorkerTarget("bad", 1, batch_max=0)


def test_shutdown_wait_drains_backlog_with_batching():
    rt = PjRuntime()
    try:
        rt.create_worker("w", 1, batch_max=16)
        ran: list[int] = []
        gate = threading.Event()
        rt.get_target("w").post(gate.wait)
        for i in range(30):
            rt.invoke_target_block("w", (lambda i=i: ran.append(i)), "nowait")
        gate.set()
        rt.shutdown(wait=True)
        assert ran == list(range(30))
    finally:
        rt.shutdown(wait=False)
