"""Tests for the asyncio adapter (the paper's future-work item)."""

import asyncio
import threading
import time

import pytest

from repro.adapters import as_future, register_asyncio_edt, run_blocking_io
from repro.core import (
    PjRuntime,
    QueueFullError,
    RegionFailedError,
    RegionState,
    RuntimeStateError,
    TargetRegion,
    TargetShutdownError,
    current_target,
)


@pytest.fixture()
def rt():
    runtime = PjRuntime()
    runtime.create_worker("worker", 2)
    yield runtime
    runtime.shutdown(wait=False)


def run_async(coro):
    return asyncio.run(coro)


class TestRegistration:
    def test_loop_thread_becomes_member(self, rt):
        async def main():
            target = register_asyncio_edt(rt, "aio")
            await asyncio.sleep(0)  # let the bind callback run
            return target.contains(), threading.current_thread()

        contains, loop_thread = run_async(main())
        assert contains
        assert loop_thread is threading.current_thread()

    def test_post_from_worker_lands_on_loop(self, rt):
        async def main():
            register_asyncio_edt(rt, "aio")
            await asyncio.sleep(0)
            loop_thread = threading.current_thread()
            seen = []
            done = asyncio.Event()

            def worker_side():
                # From the pool: dispatch a GUI-style update to the loop.
                rt.invoke_target_block(
                    "aio",
                    lambda: (seen.append(threading.current_thread()), done.set()),
                    "nowait",
                )

            rt.invoke_target_block("worker", worker_side, "nowait")
            await asyncio.wait_for(done.wait(), timeout=5)
            return seen, loop_thread

        seen, loop_thread = run_async(main())
        assert seen == [loop_thread]

    def test_inline_when_already_on_loop(self, rt):
        async def main():
            register_asyncio_edt(rt, "aio")
            await asyncio.sleep(0)
            h = rt.invoke_target_block("aio", threading.current_thread)
            return h.result()

        assert run_async(main()) is threading.current_thread()

    def test_await_mode_rejected_from_loop(self, rt):
        async def main():
            register_asyncio_edt(rt, "aio")
            await asyncio.sleep(0)
            with pytest.raises(RuntimeStateError, match="as_future"):
                rt.invoke_target_block("worker", lambda: 1, "await")

        run_async(main())

    def test_process_one_rejected(self, rt):
        async def main():
            target = register_asyncio_edt(rt, "aio")
            await asyncio.sleep(0)
            with pytest.raises(RuntimeStateError):
                target.process_one()

        run_async(main())

    def test_post_after_shutdown(self, rt):
        async def main():
            target = register_asyncio_edt(rt, "aio")
            await asyncio.sleep(0)
            target.shutdown()
            with pytest.raises(TargetShutdownError):
                target.post(lambda: None)

        run_async(main())

    def test_shutdown_from_another_thread_unbinds_the_loop_thread(self, rt):
        # As HttpServer.stop does: the target is shut down from an executor
        # thread, but current_target() is the loop thread's own binding.
        async def main():
            target = register_asyncio_edt(rt, "aio")
            await asyncio.sleep(0)
            await asyncio.get_running_loop().run_in_executor(None, target.shutdown)
            return current_target()

        assert run_async(main()) is None
        assert current_target() is None
        assert rt.invoke_target_block("worker", lambda: 7, "await").result() == 7

    def test_drain_rejected(self, rt):
        # The backlog is loop-confined work: draining would run it here.
        async def main():
            target = register_asyncio_edt(rt, "aio")
            await asyncio.sleep(0)
            with pytest.raises(RuntimeStateError):
                target.drain()

        run_async(main())


class TestBaseQueueAdmission:
    """The adapter's backlog is the inherited target queue; the loop only
    consumes it, one ``call_soon_threadsafe`` step per queued item."""

    def test_callables_and_regions_share_the_counters(self, rt):
        async def main():
            target = register_asyncio_edt(rt, "aio")
            await asyncio.sleep(0)
            ran = []
            region = TargetRegion(lambda: ran.append("region"))
            target.post(lambda: ran.append("callable"))
            target.post(region)
            queued = target.work_count()
            await as_future(region)
            return ran, queued, target.work_count(), target.stats

        ran, queued, after, stats = run_async(main())
        assert ran == ["callable", "region"]  # FIFO, on the loop
        assert (queued, after) == (2, 0)
        assert stats["posted"] == 2 and stats["high_water"] == 2

    def test_capacity_counts_queued_items_not_the_running_one(self, rt):
        async def main():
            target = register_asyncio_edt(
                rt, "aio", queue_capacity=1, rejection_policy="reject"
            )
            await asyncio.sleep(0)
            first = TargetRegion(lambda: target.work_count())
            second = TargetRegion(lambda: "second")
            target.post(first)
            with pytest.raises(QueueFullError):
                target.post(second)  # `first` is queued, not yet started
            # While `first` runs it no longer holds the slot.
            depth_while_running = await as_future(first)
            target.post(second)
            return depth_while_running, await as_future(second)

        assert run_async(main()) == (0, "second")

    def test_wakeup_does_not_eat_a_consumer_step(self, rt):
        async def main():
            target = register_asyncio_edt(rt, "aio")
            await asyncio.sleep(0)
            target.wakeup()
            region = TargetRegion(lambda: "ran")
            target.post(region)
            return await asyncio.wait_for(as_future(region), timeout=5)

        assert run_async(main()) == "ran"

    def test_graceful_shutdown_of_a_stopped_loop_cancels_the_backlog(self, rt):
        # Nothing will ever run the steps: wait=True must not strand the
        # region PENDING (nor stall for the drain grace).
        loop = asyncio.new_event_loop()
        try:
            target = register_asyncio_edt(rt, "aio", loop)
            region = TargetRegion(lambda: "never")
            target.post(region)
            t0 = time.monotonic()
            target.shutdown(wait=True)
            assert time.monotonic() - t0 < 1.0
            assert region.state is RegionState.CANCELLED
            assert target.stats["cancelled_on_shutdown"] == 1
        finally:
            loop.close()


class TestAsFuture:
    def test_awaiting_worker_result(self, rt):
        async def main():
            register_asyncio_edt(rt, "aio")
            h = rt.invoke_target_block("worker", lambda: 6 * 7, "nowait")
            return await as_future(h)

        assert run_async(main()) == 42

    def test_loop_stays_responsive_while_awaiting(self, rt):
        """The coroutine spelling of the logical barrier: other coroutines
        run while the offloaded block computes."""

        async def main():
            register_asyncio_edt(rt, "aio")
            ticks = []

            async def ticker():
                for _ in range(5):
                    ticks.append(time.perf_counter())
                    await asyncio.sleep(0.01)

            tick_task = asyncio.ensure_future(ticker())
            h = rt.invoke_target_block(
                "worker", lambda: (time.sleep(0.15), "slow-result")[1], "nowait"
            )
            result = await as_future(h)
            await tick_task
            return result, ticks

        result, ticks = run_async(main())
        assert result == "slow-result"
        assert len(ticks) == 5  # ticker made progress during the block

    def test_exception_propagates(self, rt):
        async def main():
            register_asyncio_edt(rt, "aio")
            h = rt.invoke_target_block("worker", lambda: 1 / 0, "nowait")
            with pytest.raises(RegionFailedError):
                await as_future(h)

        run_async(main())

    def test_cancelled_future_is_safe(self, rt):
        async def main():
            register_asyncio_edt(rt, "aio")
            gate = threading.Event()
            h = rt.invoke_target_block("worker", gate.wait, "nowait")
            fut = as_future(h)
            fut.cancel()
            gate.set()
            h.wait(timeout=5)
            await asyncio.sleep(0.05)  # resolve callback must not explode
            return fut.cancelled()

        assert run_async(main())

    def test_a_region_settling_after_its_loop_closed_is_a_no_op(self, rt, monkeypatch):
        """The lane that settles the region outlives the loop (an HTTP CPU
        lane after its server stopped): the future is abandoned, and the
        lane must neither raise nor die."""
        raised = []
        monkeypatch.setattr(threading, "excepthook", raised.append)
        gate = threading.Event()
        h = rt.invoke_target_block("worker", lambda: (gate.wait(5), "late")[1], "nowait")
        loop = asyncio.new_event_loop()
        fut = as_future(h, loop)
        loop.close()
        gate.set()
        assert h.wait(timeout=5) and h.result() == "late"
        assert not fut.done()
        # The lane is still serving.
        assert rt.invoke_target_block("worker", lambda: 7, timeout=5).result() == 7
        assert raised == []


class TestRunBlockingIo:
    def test_offloads_and_returns(self, rt):
        def blocking_read(path_like):
            time.sleep(0.02)  # pretend disk latency
            return f"contents-of-{path_like}"

        async def main():
            register_asyncio_edt(rt, "aio")
            return await run_blocking_io(rt, "worker", blocking_read, "data.bin")

        assert run_async(main()) == "contents-of-data.bin"

    def test_concurrent_io_overlaps(self, rt):
        async def main():
            register_asyncio_edt(rt, "aio")
            t0 = time.perf_counter()
            results = await asyncio.gather(
                run_blocking_io(rt, "worker", lambda: (time.sleep(0.1), "a")[1]),
                run_blocking_io(rt, "worker", lambda: (time.sleep(0.1), "b")[1]),
            )
            return results, time.perf_counter() - t0

        results, elapsed = run_async(main())
        assert results == ["a", "b"]
        assert elapsed < 0.19  # the two 100 ms sleeps overlapped

    def test_io_error_propagates(self, rt):
        async def main():
            register_asyncio_edt(rt, "aio")
            with pytest.raises(RegionFailedError) as ei:
                await run_blocking_io(rt, "worker", lambda: open("/nonexistent-path-xyz"))
            return ei.value

        err = run_async(main())
        assert isinstance(err.cause, FileNotFoundError)
