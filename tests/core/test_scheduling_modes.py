"""Semantic reproduction of paper Table I: the four scheduling clauses.

Each test pins down the observable contract of one row of Table I:

==========  =====================================================
default     encountering thread waits until the block finishes
nowait      skip + no completion notification
name_as     skip + join later via wait(tag); tags are shareable
await       skip + process other events until done, then continue
==========  =====================================================
"""

import threading
import time

import pytest

from repro import obs
from repro.check.invariants import verify_events
from repro.core import RegionFailedError, TargetRegion, VirtualTarget
from repro.obs import EventKind


class TestDefaultClause:
    def test_blocks_until_finished(self, worker_rt):
        finished = []
        t0 = time.monotonic()
        worker_rt.invoke_target_block(
            "worker", lambda: (time.sleep(0.1), finished.append(1))
        )
        elapsed = time.monotonic() - t0
        assert finished == [1]
        assert elapsed >= 0.1

    def test_result_available_synchronously(self, worker_rt):
        h = worker_rt.invoke_target_block("worker", lambda: {"k": 1})
        assert h.result() == {"k": 1}


class TestNowaitClause:
    def test_returns_before_block_finishes(self, worker_rt):
        release = threading.Event()
        h = worker_rt.invoke_target_block("worker", release.wait, "nowait")
        assert not h.done  # still running / queued
        release.set()
        assert h.wait(timeout=2)

    def test_safe_to_ignore_handle(self, worker_rt):
        # "the code block can be safely invoked and ignored" -- broadcasting
        # interim updates must not require any join.
        hits = []
        for i in range(10):
            worker_rt.invoke_target_block("worker", lambda i=i: hits.append(i), "nowait")
        deadline = time.monotonic() + 2
        while len(hits) < 10 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert sorted(hits) == list(range(10))


class TestNameAsWaitClause:
    def test_wait_joins_all_instances_sharing_tag(self, worker_rt):
        # "different target blocks are allowed to share the same name-tag"
        done = []
        lock = threading.Lock()

        def body(i):
            time.sleep(0.01 * (i % 3))
            with lock:
                done.append(i)

        for i in range(8):
            worker_rt.invoke_target_block(
                "worker", lambda i=i: body(i), "name_as", tag="shared"
            )
        worker_rt.wait_tag("shared", timeout=5)
        assert sorted(done) == list(range(8))

    def test_wait_on_unknown_tag_is_noop_by_default(self, worker_rt):
        worker_rt.wait_tag("never-used", timeout=1)

    def test_independent_tags_do_not_interfere(self, worker_rt):
        slow_gate = threading.Event()
        worker_rt.invoke_target_block("worker", slow_gate.wait, "name_as", tag="slow")
        fast = []
        worker_rt.invoke_target_block(
            "worker", lambda: fast.append(1), "name_as", tag="fast"
        )
        worker_rt.wait_tag("fast", timeout=5)  # must not wait for "slow"
        assert fast == [1]
        slow_gate.set()
        worker_rt.wait_tag("slow", timeout=5)

    def test_wait_surfaces_group_errors(self, worker_rt):
        worker_rt.invoke_target_block("worker", lambda: 1 / 0, "name_as", tag="bad")
        with pytest.raises(RegionFailedError):
            worker_rt.wait_tag("bad", timeout=5)

    def test_wait_timeout(self, worker_rt):
        gate = threading.Event()
        worker_rt.invoke_target_block("worker", gate.wait, "name_as", tag="stuck")
        with pytest.raises(TimeoutError):
            worker_rt.wait_tag("stuck", timeout=0.05)
        gate.set()
        worker_rt.wait_tag("stuck", timeout=5)

    def test_tag_reusable_after_completion(self, worker_rt):
        worker_rt.invoke_target_block("worker", lambda: 1, "name_as", tag="t")
        worker_rt.wait_tag("t", timeout=5)
        hits = []
        worker_rt.invoke_target_block("worker", lambda: hits.append(1), "name_as", tag="t")
        worker_rt.wait_tag("t", timeout=5)
        assert hits == [1]

    def test_wait_from_edt_keeps_processing_events(self, edt_rt):
        """wait(tag) from the EDT is a logical barrier too: queued events run
        while the EDT waits for the tag group."""
        edt = edt_rt.get_target("edt")
        order = []
        done = threading.Event()

        def handler():
            edt_rt.invoke_target_block(
                "worker",
                lambda: (time.sleep(0.1), order.append("tagged"))[1],
                "name_as",
                tag="grp",
            )
            edt_rt.wait_tag("grp", timeout=5)
            order.append("after-wait")
            done.set()

        edt.post(TargetRegion(handler))
        time.sleep(0.02)
        edt.post(TargetRegion(lambda: order.append("other-event")))
        assert done.wait(timeout=5)
        assert order == ["other-event", "tagged", "after-wait"]


class TestAwaitClause:
    def test_continuation_runs_after_block(self, edt_rt):
        edt = edt_rt.get_target("edt")
        order = []
        done = threading.Event()

        def handler():
            edt_rt.invoke_target_block(
                "worker", lambda: order.append("block"), "await"
            )
            order.append("continuation")
            done.set()

        edt.post(TargetRegion(handler))
        assert done.wait(timeout=5)
        assert order == ["block", "continuation"]

    def test_edt_responsive_during_await(self, edt_rt):
        """The headline property (paper Fig. 1 / Table I): events fired while
        a handler awaits a long computation are handled promptly, not after
        the computation."""
        edt = edt_rt.get_target("edt")
        response_times = {}
        done = threading.Event()

        def long_handler():
            edt_rt.invoke_target_block("worker", lambda: time.sleep(0.3), "await")
            done.set()

        edt.post(TargetRegion(long_handler))
        time.sleep(0.02)
        fired = time.monotonic()
        edt.post(TargetRegion(lambda: response_times.update(quick=time.monotonic() - fired)))
        assert done.wait(timeout=5)
        # The quick event ran during the 0.3 s await, far sooner than 0.3 s.
        assert response_times["quick"] < 0.15


class TestTagJoinFromMemberThread:
    """``wait(tag)`` on a thread that belongs to a virtual target is the same
    logical barrier as ``await``: it pumps the host's queue and ends when the
    group drains — not at the pump's next poll."""

    @staticmethod
    def _join_on(rt, host_name, tag="grp"):
        """Run a handler on *host_name* that queues 3 follow-up events on its
        own host, posts 4 tagged ~1 ms regions (the last gated on the last
        follow-up, so the join can only end if the host pumped them) and
        joins them.  Returns (seconds the join took, what ran in what order)."""
        host = rt.get_target(host_name)
        pumped, done = threading.Event(), threading.Event()
        order, took = [], []

        def handler():
            for i in range(3):
                host.post(TargetRegion(lambda i=i: order.append(f"event-{i}")))
            host.post(pumped.set)
            for i in range(4):
                body = (lambda: pumped.wait(5)) if i == 3 else (lambda: time.sleep(0.001))
                rt.invoke_target_block("worker", body, "name_as", tag=tag)
            t0 = time.monotonic()
            rt.wait_tag(tag, timeout=10)
            took.append(time.monotonic() - t0)
            order.append("after-wait")
            done.set()

        host.post(TargetRegion(handler))
        assert done.wait(timeout=15)
        return took[0], order

    @pytest.mark.parametrize(
        "host, lanes", [("edt", 1), ("pool", 1), ("pool", 2)],
        ids=["edt", "pool", "pool-2-lanes"],
    )
    def test_join_ends_when_the_group_drains_whatever_the_poll(
        self, edt_rt, host, lanes, monkeypatch
    ):
        edt_rt.create_worker("pool", lanes)
        monkeypatch.setattr(VirtualTarget, "_barrier_poll", 2.0)
        took, order = self._join_on(edt_rt, host)
        # With a sibling lane the follow-ups run beside the handler's pump.
        assert sorted(order[:-1]) == ["event-0", "event-1", "event-2"]
        assert order[-1] == "after-wait"
        if lanes == 1:
            assert order == ["event-0", "event-1", "event-2", "after-wait"]
        assert took < 0.5, f"join slept out the poll: {took:.2f}s"
        assert edt_rt.get_target(host).stats["barriers_ended_by_poll"] == 0

    def test_join_span_attributes_every_pumped_item(self, edt_rt):
        obs.session().clear()
        session = obs.enable()
        try:
            self._join_on(edt_rt, "edt")
        finally:
            obs.disable()
        events = session.events()
        session.clear()
        on_edt = [e for e in events if e.target == "edt"]
        kinds = [e.kind for e in on_edt]
        span = on_edt[kinds.index(EventKind.TAG_WAIT_BEGIN):kinds.index(EventKind.TAG_WAIT_END)]
        steals = [e for e in span if e.kind is EventKind.PUMP_STEAL]
        pumped = sum(e.kind is EventKind.EXEC_BEGIN for e in span)
        assert pumped == 4  # three events and the gate's release
        assert [(e.name, e.arg["mode"]) for e in steals] == [("grp", "barrier")] * pumped
        assert verify_events(events) == []


class TestBarrierOnAMultiLanePool:
    """Algorithm 1 lines 13-16 hold for any member of a ``create_worker(t, m)``
    pool: the wakeup owed to a pumping member reaches it however many idle
    sibling lanes share its queue.  With a 2 s poll, a barrier that missed
    its wakeup is unmistakable."""

    POLL = 2.0

    @staticmethod
    def _one_ms():
        time.sleep(0.001)

    @staticmethod
    def _on_members(rt, bodies):
        """Run each of *bodies* on its own lane of ``pool``, all at once;
        returns what each returned."""
        together = threading.Barrier(len(bodies))
        handles = [
            rt.invoke_target_block(
                "pool", lambda body=body: (together.wait(5), body())[1], "nowait"
            )
            for body in bodies
        ]
        return [h.result(timeout=30) for h in handles]

    @staticmethod
    def _timed(barrier, rounds):
        def body():
            took = []
            for _ in range(rounds):
                t0 = time.monotonic()
                barrier()
                took.append(time.monotonic() - t0)
            return took
        return body

    def _assert_prompt(self, rt, took):
        slow = [round(t, 3) for t in took if t >= 0.5]
        assert not slow, f"{len(slow)} of {len(took)} barriers slept out the poll: {slow}"
        assert rt.get_target("pool").stats["barriers_ended_by_poll"] == 0

    @pytest.mark.parametrize("lanes", [2, 4])
    def test_await_from_a_member_returns_on_its_wakeup(self, worker_rt, lanes, monkeypatch):
        rt = worker_rt
        rt.create_worker("pool", lanes)
        monkeypatch.setattr(VirtualTarget, "_barrier_poll", self.POLL)
        awaits = self._timed(
            lambda: rt.invoke_target_block("worker", self._one_ms, "await"), 50
        )
        (took,) = self._on_members(rt, [awaits])
        self._assert_prompt(rt, took)

    @pytest.mark.parametrize("lanes", [2, 4])
    def test_wait_tag_from_a_member_returns_when_the_group_drains(
        self, worker_rt, lanes, monkeypatch
    ):
        rt = worker_rt
        rt.create_worker("pool", lanes)
        monkeypatch.setattr(VirtualTarget, "_barrier_poll", self.POLL)

        def join():
            for _ in range(4):
                rt.invoke_target_block("worker", self._one_ms, "name_as", tag="g")
            rt.wait_tag("g", timeout=10)

        (took,) = self._on_members(rt, [self._timed(join, 25)])
        self._assert_prompt(rt, took)

    def test_two_members_awaiting_at_once_each_get_their_wakeup(self, worker_rt, monkeypatch):
        # Three lanes: two guests on one queue and an idle sibling.  Each
        # completion wakes both guests; each re-checks its own predicate.
        rt = worker_rt
        rt.create_worker("pool", 3)
        monkeypatch.setattr(VirtualTarget, "_barrier_poll", self.POLL)
        awaits = self._timed(
            lambda: rt.invoke_target_block("worker", self._one_ms, "await"), 50
        )
        took_a, took_b = self._on_members(rt, [awaits, awaits])
        self._assert_prompt(rt, took_a + took_b)
