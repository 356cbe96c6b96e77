"""EXEC_END must record what actually happened — regression tests for the
bug where a plain callable that raised was still traced as ``completed``.
A posted callable is wrapped into a region on admission, so its outcome is
that region's terminal state, and its failure, which has no waiter, is
logged."""

from __future__ import annotations

import logging

import pytest

from repro.core.region import TargetRegion
from repro.core.targets import EdtTarget
from repro.obs.events import EventKind


@pytest.fixture()
def edt():
    t = EdtTarget("outcome-edt")
    t.register_current_thread()
    yield t
    t._exit_member()


def exec_ends(session, name):
    return [
        e for e in session.events()
        if e.kind is EventKind.EXEC_END and e.name == name
    ]


def test_raising_callable_traced_as_failed(tracing, edt, caplog):
    def boom():
        raise RuntimeError("deliberate")

    edt.post(boom)
    with caplog.at_level(logging.ERROR, logger="repro.core.targets"):
        assert edt.drain() == 1
    # Found by the label post gave it: its qualified name.
    ends = exec_ends(tracing, boom.__qualname__)
    assert [e.arg for e in ends] == ["failed"]
    chain = [e for e in tracing.events() if e.region == ends[0].region]
    assert [e.kind for e in chain] == [
        EventKind.ENQUEUE, EventKind.DEQUEUE, EventKind.EXEC_BEGIN, EventKind.EXEC_END,
    ]
    (record,) = [r for r in caplog.records if "unhandled exception" in r.getMessage()]
    assert "posted to outcome-edt" in record.getMessage()
    assert record.exc_info[0] is RuntimeError


def test_successful_callable_traced_as_completed(tracing, edt):
    def ok():
        return None

    edt.post(ok)
    edt.drain()
    assert [e.arg for e in exec_ends(tracing, ok.__qualname__)] == ["completed"]


def test_failing_region_traced_as_failed(tracing, edt):
    region = TargetRegion(lambda: 1 / 0, name="div")
    edt.post(region)
    edt.drain()
    assert [e.arg for e in exec_ends(tracing, "div")] == ["failed"]
    assert region.exception is not None


def test_cancelled_corpse_gets_no_exec_span(tracing, edt):
    region = TargetRegion(lambda: None, name="corpse")
    edt.post(region)
    region.cancel()
    edt.drain()
    kinds = [e.kind for e in tracing.events() if e.name == "corpse"]
    assert EventKind.DEQUEUE in kinds
    assert EventKind.EXEC_BEGIN not in kinds
    assert EventKind.EXEC_END not in kinds
