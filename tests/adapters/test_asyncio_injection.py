"""Injection seam coverage for the asyncio adapter's post path.

``AsyncioEdtTarget.post`` admits through ``VirtualTarget.post`` onto the
base ``_TargetQueue`` (the loop is only the consumer), so it inherits every
seam the stress/exploration harnesses rely on.  These tests pin that from
inside a running loop: the ``"post"`` seam fires on this path,
``force_queue_full`` drives the rejection policies for bounded adapters,
and an unbounded adapter never consults the hook.
"""

from __future__ import annotations

import asyncio

import pytest

from repro import obs
from repro.adapters import register_asyncio_edt
from repro.core import PjRuntime, QueueFullError
from repro.core import injection
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


@pytest.fixture()
def rt():
    runtime = PjRuntime()
    yield runtime
    runtime.shutdown(wait=False)


def run_async(coro):
    return asyncio.run(coro)


class _FullHook:
    def __init__(self, verdict: bool = True) -> None:
        self.verdict = verdict
        self.calls: list[str] = []

    def __call__(self, owner: str) -> bool:
        self.calls.append(owner)
        return self.verdict


class TestPostSeam:
    def test_region_post_crosses_the_seam(self, rt):
        crossings: list[tuple[str, str]] = []
        injection.install(injection.InjectionHooks(
            decision=lambda point, name: crossings.append((point, name))
        ))

        async def main():
            target = register_asyncio_edt(rt, "aio")
            await asyncio.sleep(0)
            region = TargetRegion(lambda: "ok", name="r1")
            target.post(region)
            await asyncio.sleep(0)
            return region.result(timeout=5)

        assert run_async(main()) == "ok"
        assert ("post", "aio") in crossings

    def test_callable_post_crosses_the_seam(self, rt):
        # The bare-callable branch shares the entry; it must not dodge the
        # seam just because it skips the admission machinery.
        crossings: list[tuple[str, str]] = []
        injection.install(injection.InjectionHooks(
            decision=lambda point, name: crossings.append((point, name))
        ))

        async def main():
            target = register_asyncio_edt(rt, "aio")
            await asyncio.sleep(0)
            done = asyncio.Event()
            target.post(done.set)
            await asyncio.wait_for(done.wait(), timeout=5)

        run_async(main())
        assert ("post", "aio") in crossings


class TestForcedFull:
    def test_unbounded_adapter_never_consults_the_hook(self, rt):
        hook = _FullHook(verdict=True)
        injection.install(injection.InjectionHooks(force_queue_full=hook))

        async def main():
            target = register_asyncio_edt(rt, "aio")
            await asyncio.sleep(0)
            region = TargetRegion(lambda: "ok", name="r1")
            target.post(region)
            await asyncio.sleep(0)
            return region.result(timeout=5)

        assert run_async(main()) == "ok"
        assert hook.calls == []

    def test_bounded_reject_policy(self, rt):
        hook = _FullHook(verdict=True)
        injection.install(injection.InjectionHooks(force_queue_full=hook))

        async def main():
            target = register_asyncio_edt(
                rt, "aio", queue_capacity=4, rejection_policy="reject"
            )
            await asyncio.sleep(0)
            with pytest.raises(QueueFullError):
                target.post(TargetRegion(lambda: None, name="r1"))
            return target.stats["rejected"]

        assert run_async(main()) == 1
        assert hook.calls == ["aio"]

    def test_bounded_caller_runs_policy(self, rt):
        hook = _FullHook(verdict=True)
        injection.install(injection.InjectionHooks(force_queue_full=hook))

        async def main():
            target = register_asyncio_edt(
                rt, "aio", queue_capacity=4, rejection_policy="caller_runs"
            )
            await asyncio.sleep(0)
            region = TargetRegion(lambda: "inline", name="r1")
            target.post(region)  # forced full: runs in the posting thread
            return region.result(timeout=1), target.stats["caller_runs"]

        result, caller_runs = run_async(main())
        assert result == "inline"
        assert caller_runs == 1
        assert hook.calls == ["aio"]

    def test_bounded_caller_runs_drops_corpse(self, rt):
        # Satellite-1 contract, adapter side: a region cancelled before the
        # forced-full verdict must not take the caller_runs path.
        hook = _FullHook(verdict=True)
        injection.install(injection.InjectionHooks(force_queue_full=hook))

        async def main():
            target = register_asyncio_edt(
                rt, "aio", queue_capacity=4, rejection_policy="caller_runs"
            )
            await asyncio.sleep(0)
            region = TargetRegion(lambda: "never", name="r1")
            region.cancel()
            target.post(region)  # corpse: silent no-op
            return target.stats["caller_runs"]

        assert run_async(main()) == 0
        assert hook.calls == ["aio"]
