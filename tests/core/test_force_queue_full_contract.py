"""Contract: ``force_queue_full`` applies to *bounded* queues only.

An unbounded queue can never be full, so the fault hook must never be
consulted for one — a forced rejection there would fabricate a state the
real runtime cannot reach.  The hook is consulted in exactly one place
(``_TargetQueue.put``) that every target kind posts through, so the
contract is pinned across all three rejection policies for each kind: the
classes are written against ``EdtTarget`` and rerun by subclass on
``WorkerTarget`` and ``AsyncioEdtTarget`` (consumer parked, see
``conftest.parked_target``).
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.core import injection
from repro.core.errors import QueueFullError
from repro.core.region import TargetRegion


@pytest.fixture(autouse=True)
def _clean():
    obs.disable()
    obs.session().clear()
    injection.uninstall()
    yield
    obs.disable()
    obs.session().clear()
    injection.uninstall()


class _Hook:
    """force_queue_full hook that records every consultation."""

    def __init__(self, verdict: bool = True) -> None:
        self.verdict = verdict
        self.calls: list[str] = []

    def __call__(self, owner: str) -> bool:
        self.calls.append(owner)
        return self.verdict


class _OnKind:
    """Builds the target under test; subclasses pick another kind."""

    kind = "edt"

    @pytest.fixture(autouse=True)
    def _factory(self, parked_target):
        self._target = lambda **options: parked_target(self.kind, "t0", **options)[0]


class TestUnboundedNeverConsults(_OnKind):
    @pytest.mark.parametrize("policy", ["block", "reject", "caller_runs"])
    def test_post_succeeds_and_hook_stays_cold(self, policy):
        hook = _Hook(verdict=True)  # would force "full" if ever consulted
        injection.install(injection.InjectionHooks(force_queue_full=hook))
        target = self._target(rejection_policy=policy)
        region = TargetRegion(lambda: "ok", name="r1")
        target.post(region)  # must enqueue: capacity is None
        assert hook.calls == []
        assert target.work_count() == 1
        assert target.stats["posted"] == 1
        assert target.stats["rejected"] == 0
        assert target.stats["caller_runs"] == 0
        target.shutdown(wait=False)


class TestBoundedConsults(_OnKind):
    def test_reject_policy_forced_full(self):
        hook = _Hook(verdict=True)
        injection.install(injection.InjectionHooks(force_queue_full=hook))
        target = self._target(queue_capacity=4, rejection_policy="reject")
        with pytest.raises(QueueFullError):
            target.post(TargetRegion(lambda: None, name="r1"))
        assert hook.calls == ["t0"]
        assert target.work_count() == 0  # the queue had space; the fault won
        assert target.stats["rejected"] == 1
        target.shutdown(wait=False)

    def test_caller_runs_policy_forced_full(self):
        hook = _Hook(verdict=True)
        injection.install(injection.InjectionHooks(force_queue_full=hook))
        target = self._target(queue_capacity=4, rejection_policy="caller_runs")
        region = TargetRegion(lambda: "inline", name="r1")
        target.post(region)
        assert hook.calls == ["t0"]
        assert region.result() == "inline"  # ran in the posting thread
        assert target.stats["caller_runs"] == 1
        target.shutdown(wait=False)

    def test_block_policy_forced_full(self):
        hook = _Hook(verdict=True)
        injection.install(injection.InjectionHooks(force_queue_full=hook))
        target = self._target(queue_capacity=4, rejection_policy="block")
        with pytest.raises(QueueFullError):
            target.post(TargetRegion(lambda: None, name="r1"), timeout=0.05)
        assert hook.calls == ["t0"]
        target.shutdown(wait=False)

    def test_false_verdict_lets_the_post_through(self):
        hook = _Hook(verdict=False)
        injection.install(injection.InjectionHooks(force_queue_full=hook))
        target = self._target(queue_capacity=4, rejection_policy="reject")
        target.post(TargetRegion(lambda: None, name="r1"))
        assert hook.calls == ["t0"]  # consulted, said "not full"
        assert target.work_count() == 1
        target.shutdown(wait=False)

    def test_caller_runs_forced_full_drops_a_cancelled_corpse(self):
        # A region cancelled before the forced-full verdict must not take
        # the caller_runs path: no stat, no execution.
        hook = _Hook(verdict=True)
        injection.install(injection.InjectionHooks(force_queue_full=hook))
        target = self._target(queue_capacity=4, rejection_policy="caller_runs")
        region = TargetRegion(lambda: "never", name="r1")
        region.cancel()
        assert target.post(region) is False  # corpse: silent no-op
        assert hook.calls == ["t0"]
        assert target.stats["caller_runs"] == 0
        assert target.work_count() == 0


class TestUnboundedNeverConsultsOnWorker(TestUnboundedNeverConsults):
    kind = "worker"


class TestBoundedConsultsOnWorker(TestBoundedConsults):
    kind = "worker"


class TestUnboundedNeverConsultsOnAsyncio(TestUnboundedNeverConsults):
    kind = "asyncio"


class TestBoundedConsultsOnAsyncio(TestBoundedConsults):
    kind = "asyncio"
