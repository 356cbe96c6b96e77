"""A region's label is recorded once and joined back at read time: every
retained event of a region resolves to the label its first event carried,
whichever path it took (the process-lane path is in
tests/dist/test_remote_obs.py)."""

from __future__ import annotations

import threading

import pytest

from repro import obs
from repro.core import PjRuntime, TargetRegion
from repro.eventloop import EventLoop
from repro.obs import EventKind


def _region_events(rid: int) -> list[obs.TraceEvent]:
    return [e for e in obs.session().events() if e.region == rid]


def _assert_one_label(rid: int, label: str, kinds: set[EventKind]) -> None:
    events = _region_events(rid)
    assert kinds <= {e.kind for e in events}
    assert events[0].name == label
    assert [e.name for e in events] == [label] * len(events)


@pytest.fixture()
def rt():
    runtime = PjRuntime()
    runtime.create_worker("w", 1)
    yield runtime
    runtime.shutdown(wait=False)


def test_thread_lane(tracing, rt):
    region = TargetRegion(lambda: 1, name="job", source="app.py:7")
    rt.invoke_target_block("w", region)
    _assert_one_label(region.seq, "job@app.py:7", {
        EventKind.REGION_SUBMIT, EventKind.ENQUEUE, EventKind.DEQUEUE,
        EventKind.EXEC_BEGIN, EventKind.EXEC_END,
    })


def test_inline_elision(tracing, rt):
    inner = TargetRegion(lambda: 2, name="inner")
    rt.invoke_target_block("w", lambda: rt.invoke_target_block("w", inner))
    _assert_one_label(inner.seq, "inner", {
        EventKind.REGION_SUBMIT, EventKind.INLINE_ELIDE,
        EventKind.EXEC_BEGIN, EventKind.EXEC_END,
    })


def test_direct_post_is_named_by_its_enqueue(tracing, rt):
    region = TargetRegion(lambda: 3)
    rt.get_target("w").post(region)
    region.wait(5)
    _assert_one_label(region.seq, region.label, {
        EventKind.ENQUEUE, EventKind.DEQUEUE, EventKind.EXEC_BEGIN, EventKind.EXEC_END,
    })


def test_edt_event_is_a_named_region(tracing):
    runtime = PjRuntime()
    loop = EventLoop(runtime, "edt")
    done = threading.Event()
    loop.on("click", lambda event: done.set())
    try:
        loop.fire("click")
        assert done.wait(5)
    finally:
        runtime.shutdown(wait=False)
    (submit,) = [
        e for e in obs.session().events()
        if e.kind is EventKind.REGION_SUBMIT and e.name == "event:click"
    ]
    assert submit.arg == "event"
    _assert_one_label(submit.region, "event:click", {
        EventKind.REGION_SUBMIT, EventKind.ENQUEUE, EventKind.DEQUEUE,
        EventKind.EXEC_BEGIN, EventKind.EXEC_END,
    })


def test_a_region_whose_naming_event_fell_off_reads_unnamed(rt):
    # A lossy window (dropped > 0, a trace-overflow verdict): the lane keeps
    # only its newest event, the region's EXEC_END, and nothing names it.
    obs.enable(buffer_size=1)
    region = TargetRegion(lambda: 4, name="lost")
    rt.invoke_target_block("w", region)
    obs.disable()
    assert obs.session().stats()["dropped"] > 0
    (end,) = _region_events(region.seq)
    assert end.kind is EventKind.EXEC_END
    assert end.name is None
