"""Ablation — thread-context-aware inlining (Algorithm 1, lines 6-7).

When the encountering thread already belongs to the named virtual target,
Algorithm 1 runs the block synchronously instead of posting it.  This
ablation measures the cost of disabling that rule: every member-thread
dispatch pays a queue round trip (and, on a single-member EDT, would even
deadlock for waiting modes — which is why the rule exists).
"""

from __future__ import annotations

from repro.core import PjRuntime, TargetRegion

DEPTH = 8


def _worker_runtime() -> PjRuntime:
    rt = PjRuntime()
    rt.create_worker("worker", 2)
    return rt


def _nested_dispatch_inline(rt: PjRuntime, depth: int) -> int:
    """Member thread re-dispatches to its own target `depth` times; the
    context-awareness rule makes every level inline."""

    def level(d: int):
        if d == 0:
            return 0
        return rt.invoke_target_block("worker", lambda: level(d - 1)).result() + 1

    return rt.invoke_target_block("worker", lambda: level(depth)).result()


def _nested_dispatch_posted(rt: PjRuntime, depth: int) -> int:
    """The ablated variant: force a queue round trip per level by posting
    regions directly (bypassing the contains() check)."""

    target = rt.get_target("worker")

    def level(d: int):
        if d == 0:
            return 0
        region = TargetRegion(lambda: level(d - 1))
        target.post(region)
        return region.result(timeout=10) + 1

    region = TargetRegion(lambda: level(depth))
    target.post(region)
    return region.result(timeout=10)


def _inline_enabled():
    """Nested member-thread dispatch with the inlining rule active."""
    rt = _worker_runtime()
    return (
        lambda: _nested_dispatch_inline(rt, DEPTH),
        lambda: rt.shutdown(wait=False),
    )


def _inline_disabled():
    """The ablated variant: every nesting level pays a queue round trip.

    Needs a pool wider than the nesting depth to avoid self-deadlock —
    itself a demonstration of why Algorithm 1 inlines.
    """
    rt = PjRuntime()
    rt.create_worker("worker", DEPTH + 2)
    return (
        lambda: _nested_dispatch_posted(rt, DEPTH),
        lambda: rt.shutdown(wait=False),
    )


def test_ablation_inline_enabled(time_setup):
    time_setup(_inline_enabled, expect=DEPTH)


def test_ablation_inline_disabled(time_setup):
    time_setup(_inline_disabled, expect=DEPTH)


def test_ablation_inline_prevents_deadlock():
    """With a 1-thread pool, nested waiting dispatch only works because of
    the inline rule; the posted variant would starve."""
    rt = PjRuntime()
    rt.create_worker("worker", 1)
    try:
        def nested():
            return rt.invoke_target_block("worker", lambda: "inner").result()

        handle = rt.invoke_target_block("worker", nested, "nowait")
        assert handle.result(timeout=5) == "inner"
    finally:
        rt.shutdown(wait=False)
