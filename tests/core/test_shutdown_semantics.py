"""Tests for target shutdown and backlog semantics."""

import asyncio
import threading
import time

import pytest

from repro.core import (
    EdtTarget,
    PjRuntime,
    RegionCancelledError,
    RegionFailedError,
    RegionState,
    TargetRegion,
    TargetShutdownError,
    WorkerTarget,
)


class TestWorkerShutdown:
    def test_shutdown_drains_backlog_first(self):
        """Queued regions posted before shutdown still execute (the shutdown
        sentinel queues FIFO behind them)."""
        target = WorkerTarget("drainer", 1)
        results = []
        regions = [TargetRegion(lambda i=i: results.append(i)) for i in range(6)]
        gate = threading.Event()
        target.post(TargetRegion(gate.wait))
        for r in regions:
            target.post(r)
        gate.set()
        target.shutdown(wait=True)
        assert results == [0, 1, 2, 3, 4, 5]
        assert all(r.done for r in regions)

    def test_post_after_shutdown_raises_immediately(self):
        target = WorkerTarget("gone", 1)
        target.shutdown(wait=True)
        with pytest.raises(TargetShutdownError):
            target.post(TargetRegion(lambda: None))

    def test_shutdown_without_wait_returns_fast(self):
        target = WorkerTarget("slowpool", 1)
        gate = threading.Event()
        target.post(TargetRegion(gate.wait))
        t0 = time.monotonic()
        target.shutdown(wait=False)
        assert time.monotonic() - t0 < 0.5
        gate.set()

    def test_shutdown_from_member_thread_does_not_deadlock(self):
        target = WorkerTarget("selfstop", 2)
        finished = threading.Event()

        def stop_from_inside():
            target.shutdown(wait=True)  # must skip joining itself
            finished.set()

        target.post(TargetRegion(stop_from_inside))
        assert finished.wait(timeout=5)


class TestLostWorkShutdown:
    """shutdown(wait=False) must cancel the backlog, not strand it.

    These previously deadlocked: the shutdown sentinel let worker loops exit
    while queued regions stayed PENDING forever, hanging every waiter.
    """

    def test_queued_regions_fail_waiters_instead_of_hanging(self):
        target = WorkerTarget("doomed", 1)
        gate = threading.Event()
        target.post(TargetRegion(gate.wait))  # occupy the only thread
        regions = [TargetRegion(lambda: None) for _ in range(5)]
        for r in regions:
            target.post(r)

        outcomes = []

        def waiter(r):
            try:
                r.result(timeout=10)
                outcomes.append("ok")
            except RegionFailedError:
                outcomes.append("cancelled")

        threads = [threading.Thread(target=waiter, args=(r,)) for r in regions]
        for t in threads:
            t.start()
        t0 = time.monotonic()
        target.shutdown(wait=False)
        for t in threads:
            t.join(timeout=1.0)
        elapsed = time.monotonic() - t0
        gate.set()
        assert not any(t.is_alive() for t in threads), "waiters still hung after shutdown"
        assert elapsed < 1.0
        assert outcomes == ["cancelled"] * 5
        assert all(r.state is RegionState.CANCELLED for r in regions)
        assert target.stats["cancelled_on_shutdown"] == 5

    def test_cancelled_regions_carry_shutdown_reason(self):
        target = WorkerTarget("doomed2", 1)
        gate = threading.Event()
        target.post(TargetRegion(gate.wait))
        region = TargetRegion(lambda: 1)
        target.post(region)
        target.shutdown(wait=False)
        gate.set()
        with pytest.raises(RegionCancelledError) as ei:
            region.result(timeout=1)
        assert isinstance(ei.value.cause, TargetShutdownError)

    def test_wait_tag_unblocks_with_cancellation_error(self):
        rt = PjRuntime()
        try:
            rt.create_worker("w", 1)
            gate = threading.Event()
            rt.invoke_target_block("w", gate.wait, "nowait")
            for _ in range(3):
                rt.invoke_target_block("w", lambda: None, "name_as", tag="batch")

            failures = []
            done = threading.Event()

            def joiner():
                try:
                    rt.wait_tag("batch", timeout=10)
                except RegionFailedError as exc:
                    failures.append(exc)
                finally:
                    done.set()

            threading.Thread(target=joiner).start()
            rt.shutdown(wait=False)
            gate.set()
            assert done.wait(timeout=1.0), "wait_tag still hung after shutdown"
            assert failures and isinstance(failures[0], RegionCancelledError)
        finally:
            rt.shutdown(wait=False)

    def test_await_barrier_unblocks_on_shutdown(self):
        """A thread blocked in an ``await`` logical barrier on a region that
        gets cancelled by shutdown must resume (and see the failure)."""
        rt = PjRuntime()
        try:
            rt.create_worker("pool", 1)
            gate = threading.Event()
            rt.invoke_target_block("pool", gate.wait, "nowait")

            result = []
            done = threading.Event()

            def encounter():
                try:
                    rt.invoke_target_block("pool", lambda: 1, "await", timeout=10)
                except RegionFailedError:
                    result.append("cancelled")
                finally:
                    done.set()

            threading.Thread(target=encounter).start()
            time.sleep(0.05)  # let the region queue behind the gate
            rt.shutdown(wait=False)
            gate.set()
            assert done.wait(timeout=1.0)
            assert result == ["cancelled"]
        finally:
            rt.shutdown(wait=False)

    def test_blocked_poster_released_by_shutdown(self):
        target = WorkerTarget("full", 1, queue_capacity=1, rejection_policy="block")
        gate = threading.Event()
        target.post(TargetRegion(gate.wait))
        target.post(TargetRegion(lambda: None))  # fills the bounded queue

        outcome = []
        done = threading.Event()

        def poster():
            try:
                target.post(TargetRegion(lambda: None))
            except TargetShutdownError:
                outcome.append("refused")
            finally:
                done.set()

        threading.Thread(target=poster).start()
        time.sleep(0.05)
        target.shutdown(wait=False)
        gate.set()
        assert done.wait(timeout=1.0), "poster still blocked on a dead target"
        assert outcome == ["refused"]


class TestSentinelRepost:
    def test_pumping_thread_does_not_swallow_shutdown_sentinel(self):
        """A member pumping during an ``await`` barrier must re-post the
        shutdown sentinel so the worker loop still terminates."""
        target = WorkerTarget("pumper", 1)
        pumping = threading.Event()
        release = threading.Event()

        def barrier_body():
            pumping.set()
            # The logical barrier: the pool's only thread pumps its own queue
            # while the sentinel is already enqueued.
            target.pump_until(release.is_set, poll=0.01)

        target.post(TargetRegion(barrier_body))
        assert pumping.wait(timeout=2)
        target.shutdown(wait=False)  # sentinel lands while the member pumps
        time.sleep(0.1)  # give the pumping thread a chance to (mis)handle it
        release.set()
        for t in target._threads:
            t.join(timeout=2)
        assert not any(t.is_alive() for t in target._threads), (
            "worker loop never saw the shutdown sentinel (swallowed by pump)"
        )

    def test_manual_drain_leaves_sentinel_for_loop(self):
        target = EdtTarget("manual")
        target.register_current_thread()
        ran = []
        target.post(TargetRegion(lambda: ran.append(1)))
        target.shutdown(wait=False)
        target.drain()
        # The sentinel must still be queued for a (future) run_forever.
        assert target.pending >= 1


    def test_pumping_edt_blocks_behind_the_sentinel_instead_of_spinning(self):
        """An EDT pumping a barrier while shutdown's sentinel is queued is a
        guest of its own queue: the sentinel stays where it is (``pending``
        stays 1), each ``process_one`` blocks on the queue condition for its
        whole timeout (no pop/re-post/``sleep(0.001)`` spin), and the
        sentinel still reaches ``run_forever`` when the barrier ends."""
        target = EdtTarget("pumper").start_in_thread()
        pumping = threading.Event()
        seen = {}

        def barrier_body():
            pumping.set()
            while target.pending == 0:  # wait for shutdown's sentinel
                time.sleep(0.005)
            calls, pendings = 0, set()
            cpu0, t0 = time.thread_time(), time.monotonic()
            while time.monotonic() - t0 < 0.3:
                assert target.process_one(timeout=0.1) is False
                calls += 1
                pendings.add(target.pending)
            seen.update(calls=calls, pendings=pendings,
                        cpu=time.thread_time() - cpu0)

        target.post(TargetRegion(barrier_body))
        assert pumping.wait(timeout=2)
        target.shutdown(wait=True)  # returns once run_forever saw the sentinel
        assert target._stopped.is_set()
        assert seen["pendings"] == {1}
        assert seen["calls"] <= 4, f"pump spun {seen['calls']}x in 0.3s"
        assert seen["cpu"] < 0.1
        assert target.pending == 0


class TestPostRacingGracefulShutdown:
    """A post that passed the ``_shutdown`` check and then loses the race to
    ``shutdown(wait=True)`` must not land behind the shutdown sentinels,
    where no loop will ever look: graceful shutdown seals the queue too, so
    the post is refused like every other late post."""

    @pytest.mark.parametrize("kind", ["worker", "edt", "asyncio", "process"])
    def test_post_at_the_seam_is_refused_not_stranded(self, kind, parked_target):
        from repro.core import injection

        rt = PjRuntime()  # only the process kind lives in it
        if kind == "process":
            target = rt.create_process_worker("racer", 1)
        else:
            target, gate = parked_target(kind, "racer")
            gate.set()  # consumer live: the loop owner really exits
        fired = []

        def shutdown_at_seam(point, name):
            if point == "post" and not fired:
                fired.append(name)
                target.shutdown(wait=True)

        region = TargetRegion(int, name="late")
        injection.install(injection.InjectionHooks(decision=shutdown_at_seam))
        try:
            with pytest.raises(TargetShutdownError):
                target.post(region)
        finally:
            injection.uninstall()
            rt.shutdown(wait=False)
        assert fired == ["racer"]
        assert target.work_count() == 0
        assert target.stats["posted"] == 0
        # Nothing was queued, so nothing is left pending behind the
        # sentinels for a later shutdown(wait=False) to (not) find.
        target.shutdown(wait=False)
        assert region.state is RegionState.PENDING


class TestEdtShutdown:
    def test_registered_never_pumped_edt_shutdown_is_fast(self):
        """shutdown(wait=True) on a registered EDT whose loop never started
        must not stall waiting for an acknowledgement that cannot come."""
        rt = PjRuntime()
        holder = {}
        ready = threading.Event()
        release = threading.Event()

        def app_thread():
            holder["target"] = rt.register_edt("gui")
            ready.set()
            release.wait(timeout=5)  # owns the thread but never pumps

        t = threading.Thread(target=app_thread)
        t.start()
        assert ready.wait(timeout=2)
        t0 = time.monotonic()
        holder["target"].shutdown(wait=True)
        elapsed = time.monotonic() - t0
        release.set()
        t.join(timeout=2)
        assert elapsed < 1.0, f"shutdown stalled {elapsed:.1f}s on a never-started loop"

    def test_started_edt_shutdown_still_acknowledges(self):
        rt = PjRuntime()
        target = rt.start_edt("spawned")
        ran = []
        target.post(TargetRegion(lambda: ran.append(1)))
        target.shutdown(wait=True)
        assert target._stopped.wait(timeout=2)
        assert ran == [1]


class TestWaitTagPumpingGuard:
    def test_wait_tag_from_asyncio_member_raises_with_guidance(self):
        """wait_tag must apply the same supports_pumping guard as the await
        logical barrier: an asyncio loop cannot be pumped re-entrantly."""
        from repro.adapters import register_asyncio_edt
        from repro.core import RuntimeStateError

        rt = PjRuntime()
        rt.create_worker("worker", 1)

        async def main():
            register_asyncio_edt(rt, "aio")
            await asyncio.sleep(0)
            rt.invoke_target_block("worker", lambda: time.sleep(0.2), "name_as", tag="jobs")
            with pytest.raises(RuntimeStateError, match="as_future"):
                rt.wait_tag("jobs", timeout=5)

        try:
            asyncio.run(main())
        finally:
            rt.shutdown(wait=False)


class TestRuntimeShutdown:
    def test_runtime_shutdown_is_idempotent(self):
        rt = PjRuntime()
        rt.create_worker("w", 1)
        rt.shutdown()
        rt.shutdown()

    def test_targets_usable_again_after_unregister(self):
        rt = PjRuntime()
        try:
            rt.create_worker("w", 1)
            rt.unregister_target("w")
            rt.create_worker("w", 2)  # same name, fresh pool
            assert rt.invoke_target_block("w", lambda: "fresh").result() == "fresh"
        finally:
            rt.shutdown(wait=False)

    def test_invoke_after_runtime_shutdown_fails_cleanly(self):
        from repro.core import UnknownTargetError

        rt = PjRuntime()
        rt.create_worker("w", 1)
        rt.shutdown()
        with pytest.raises(UnknownTargetError):
            rt.invoke_target_block("w", lambda: None)
