"""Tests for bounded queues, rejection policies, deadlines, and cancellation
propagation — the lifecycle & backpressure layer of the virtual-target
runtime."""

import threading
import time

import pytest

from repro.core import (
    AwaitTimeoutError,
    PjRuntime,
    QueueFullError,
    RegionCancelledError,
    RegionState,
    TargetRegion,
    WorkerTarget,
    current_region,
)


def _stalled_worker(name, capacity, policy):
    """A 1-thread target whose only thread is parked on a gate, plus the gate."""
    target = WorkerTarget(name, 1, queue_capacity=capacity, rejection_policy=policy)
    gate = threading.Event()
    started = threading.Event()
    target.post(TargetRegion(lambda: (started.set(), gate.wait())))
    started.wait(timeout=2)
    return target, gate


class TestRejectionPolicies:
    """The policy matrix on a really-full queue, written against a
    ``WorkerTarget`` and rerun by subclass on the other kinds — admission is
    one code path (``VirtualTarget.post``), so it must read the same on all."""

    kind = "worker"

    @pytest.fixture(autouse=True)
    def _factory(self, parked_target):
        self._stalled = lambda name, capacity, policy: parked_target(
            self.kind, name, queue_capacity=capacity, rejection_policy=policy
        )

    def test_reject_raises_queue_full(self):
        target, gate = self._stalled("rej", 2, "reject")
        try:
            target.post(TargetRegion(lambda: None))
            target.post(TargetRegion(lambda: None))
            with pytest.raises(QueueFullError) as ei:
                target.post(TargetRegion(lambda: None))
            assert ei.value.capacity == 2
            assert target.stats["rejected"] == 1
        finally:
            gate.set()
            target.shutdown(wait=False)

    def test_block_waits_for_space(self):
        target, gate = self._stalled("blk", 1, "block")
        try:
            target.post(TargetRegion(lambda: None))
            posted = threading.Event()

            def poster():
                target.post(TargetRegion(lambda: None))  # must park: queue full
                posted.set()

            threading.Thread(target=poster).start()
            assert not posted.wait(timeout=0.15), "post should have blocked on a full queue"
            gate.set()  # worker drains, freeing a slot
            assert posted.wait(timeout=2), "blocked post never resumed"
        finally:
            gate.set()
            target.shutdown(wait=False)

    def test_block_with_timeout_raises_queue_full(self):
        target, gate = self._stalled("blkto", 1, "block")
        try:
            target.post(TargetRegion(lambda: None))
            t0 = time.monotonic()
            with pytest.raises(QueueFullError):
                target.post(TargetRegion(lambda: None), timeout=0.1)
            assert 0.05 < time.monotonic() - t0 < 1.0
        finally:
            gate.set()
            target.shutdown(wait=False)

    def test_caller_runs_executes_in_posting_thread(self):
        target, gate = self._stalled("cr", 1, "caller_runs")
        try:
            target.post(TargetRegion(lambda: None))
            ran_in = []
            region = TargetRegion(lambda: ran_in.append(threading.current_thread()))
            target.post(region)  # full queue -> runs here, synchronously
            assert region.state is RegionState.COMPLETED
            assert ran_in == [threading.current_thread()]
            assert target.stats["caller_runs"] == 1
        finally:
            gate.set()
            target.shutdown(wait=False)

    def test_caller_runs_drops_a_cancelled_corpse(self):
        target, gate = self._stalled("crc", 1, "caller_runs")
        try:
            target.post(TargetRegion(lambda: None))
            region = TargetRegion(lambda: "never")
            region.cancel()
            assert target.post(region) is False  # full queue + corpse: no-op
            assert target.stats["caller_runs"] == 0
            assert target.work_count() == 1
        finally:
            gate.set()
            target.shutdown(wait=False)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="rejection policy"):
            WorkerTarget("bad", 1, rejection_policy="drop_oldest")

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            WorkerTarget("bad", 1, queue_capacity=0)


class TestRejectionPoliciesOnEdt(TestRejectionPolicies):
    kind = "edt"


class TestRejectionPoliciesOnAsyncio(TestRejectionPolicies):
    kind = "asyncio"


class TestTelemetry:
    def test_high_water_mark_tracks_deepest_backlog(self):
        target, gate = _stalled_worker("hwm", None, "block")
        try:
            for _ in range(4):
                target.post(TargetRegion(lambda: None))
            assert target.high_water_mark >= 4
            gate.set()
            target.shutdown(wait=True)
            assert target.stats["high_water"] >= 4
            assert target.stats["posted"] == 5
        finally:
            gate.set()
            target.shutdown(wait=False)

    def test_describe_mentions_depth_and_members(self):
        target = WorkerTarget("desc", 2, queue_capacity=7)
        try:
            text = target.describe()
            assert "desc" in text and "capacity=7" in text and "pyjama-desc-0" in text
        finally:
            target.shutdown(wait=False)


class TestQueueCapacityICV:
    def test_create_worker_inherits_icv(self):
        rt = PjRuntime()
        rt.queue_capacity_var = 3
        rt.rejection_policy_var = "reject"
        try:
            target = rt.create_worker("w", 1)
            assert target.queue_capacity == 3
            assert target.rejection_policy == "reject"
        finally:
            rt.shutdown(wait=False)

    def test_explicit_arguments_beat_icv(self):
        rt = PjRuntime()
        rt.queue_capacity_var = 3
        try:
            target = rt.create_worker("w", 1, queue_capacity=9, rejection_policy="caller_runs")
            assert target.queue_capacity == 9
            assert target.rejection_policy == "caller_runs"
        finally:
            rt.shutdown(wait=False)

    def test_start_edt_inherits_icv(self):
        rt = PjRuntime()
        rt.queue_capacity_var = 5
        try:
            target = rt.start_edt("edt")
            assert target.queue_capacity == 5
        finally:
            rt.shutdown(wait=False)


class TestDeadlines:
    def test_default_wait_times_out_with_diagnostics(self):
        rt = PjRuntime()
        try:
            rt.create_worker("w", 1)
            gate = threading.Event()
            rt.invoke_target_block("w", gate.wait, "nowait")
            with pytest.raises(AwaitTimeoutError) as ei:
                rt.invoke_target_block("w", lambda: 1, timeout=0.2)
            assert "runtime diagnostics" in str(ei.value)
            assert "queued=" in ei.value.diagnostics
            gate.set()
        finally:
            rt.shutdown(wait=False)

    def test_timed_out_region_is_withdrawn_if_still_queued(self):
        rt = PjRuntime()
        try:
            rt.create_worker("w", 1)
            gate = threading.Event()
            rt.invoke_target_block("w", gate.wait, "nowait")
            region = TargetRegion(lambda: 1)
            with pytest.raises(AwaitTimeoutError, match="withdrawn"):
                rt.invoke_target_block("w", region, timeout=0.2)
            assert region.state is RegionState.CANCELLED
            gate.set()
        finally:
            rt.shutdown(wait=False)

    def test_await_barrier_times_out_while_pumping(self):
        rt = PjRuntime()
        try:
            rt.create_worker("pool", 1)
            rt.create_worker("busy", 1)
            gate = threading.Event()
            outcome = []
            done = threading.Event()

            def member_body():
                # Encounter an await on *another* (stalled) target from inside
                # the pool: the member pumps its own queue while waiting, and
                # the barrier watchdog must still fire.
                try:
                    rt.invoke_target_block("busy", gate.wait, "await", timeout=0.3)
                except AwaitTimeoutError as exc:
                    outcome.append(exc)
                finally:
                    done.set()

            rt.invoke_target_block("pool", member_body, "nowait")
            assert done.wait(timeout=5)
            assert outcome, "await barrier never hit its deadline"
            assert "await" in str(outcome[0])
            gate.set()
        finally:
            rt.shutdown(wait=False)

    def test_default_timeout_icv_applies(self):
        rt = PjRuntime()
        rt.default_timeout_var = 0.2
        try:
            rt.create_worker("w", 1)
            gate = threading.Event()
            rt.invoke_target_block("w", gate.wait, "nowait")
            with pytest.raises(AwaitTimeoutError):
                rt.invoke_target_block("w", lambda: 1)
            gate.set()
        finally:
            rt.shutdown(wait=False)

    def test_compiled_timeout_clause_reaches_runtime(self):
        """End to end: a ``timeout(...)`` pragma must flow through the
        compiler bridge and actually arm the deadline."""
        from repro.compiler import exec_omp

        rt = PjRuntime()
        try:
            rt.create_worker("w", 1)
            gate = threading.Event()
            rt.invoke_target_block("w", gate.wait, "nowait")
            ns = exec_omp(
                "def quick():\n"
                "    #omp target virtual(w) timeout(0.2)\n"
                "    y = 1\n"
                "    return y\n",
                runtime=rt,
            )
            with pytest.raises(AwaitTimeoutError):
                ns["quick"]()
            gate.set()
        finally:
            rt.shutdown(wait=False)

    def test_pump_until_deadline(self):
        target = WorkerTarget("pu", 1)
        try:
            hit = []
            done = threading.Event()

            def body():
                try:
                    target.pump_until(lambda: False, poll=0.01, timeout=0.2)
                except AwaitTimeoutError as exc:
                    hit.append(exc)
                finally:
                    done.set()

            target.post(TargetRegion(body))
            assert done.wait(timeout=5)
            assert hit and "deadline" in str(hit[0])
        finally:
            target.shutdown(wait=False)

    @pytest.mark.parametrize("member", [False, True])
    def test_tag_join_expiry_is_the_same_error(self, member):
        """``wait(tag)`` times out with ``await``'s error type whether it
        blocked (non-member) or pumped (member: with the host's diagnostics)."""
        rt = PjRuntime()
        try:
            rt.create_worker("busy", 1)
            rt.create_worker("host", 1)
            gate = threading.Event()
            rt.invoke_target_block("busy", gate.wait, "name_as", tag="stuck")

            def join():
                with pytest.raises(AwaitTimeoutError) as ei:
                    rt.wait_tag("stuck", timeout=0.1)
                return ei.value

            exc = rt.invoke_target_block("host", join).result() if member else join()
            assert "'stuck'" in str(exc)
            assert ("target 'host'" in exc.diagnostics) == member
            gate.set()
        finally:
            rt.shutdown(wait=False)


class TestCancellationPropagation:
    def test_invoke_honours_already_cancelled_region(self):
        rt = PjRuntime()
        try:
            target = rt.create_worker("w", 1)
            region = TargetRegion(lambda: 1)
            region.cancel()
            with pytest.raises(RegionCancelledError):
                rt.invoke_target_block("w", region)
            # Fire-and-forget: returns the dead handle without posting.
            region2 = TargetRegion(lambda: 1)
            region2.cancel()
            assert rt.invoke_target_block("w", region2, "nowait") is region2
            assert target.stats["posted"] == 0
        finally:
            rt.shutdown(wait=False)

    def test_cancel_token_polled_by_running_body(self):
        rt = PjRuntime()
        try:
            rt.create_worker("w", 1)
            started = threading.Event()
            stopped = threading.Event()

            def body():
                started.set()
                while not current_region().cancel_token.cancelled:
                    time.sleep(0.01)
                stopped.set()

            handle = rt.invoke_target_block("w", body, "nowait")
            assert started.wait(timeout=2)
            assert not handle.request_cancel()  # running: cooperative only
            assert stopped.wait(timeout=2), "body never observed the cancel token"
            handle.wait(timeout=2)
            assert handle.state is RegionState.COMPLETED
        finally:
            rt.shutdown(wait=False)

    def test_cancel_token_wait_and_raise_helpers(self):
        region = TargetRegion(lambda: None)
        assert not region.cancel_token.cancelled
        region.cancel_token.set()
        assert region.cancel_token.wait(timeout=0)
        with pytest.raises(RuntimeError, match="cancellation request"):
            region.cancel_token.raise_if_cancelled()
