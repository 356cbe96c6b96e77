"""Clock sync, worker event capture, and cross-process trace merging."""

from __future__ import annotations

import pytest

from repro import obs
from repro.core.region import TargetRegion
from repro.dist import wire
from repro.dist.remote_obs import estimate_offset_ns, merge_worker_events, worker_track
from repro.dist.worker import _Current, _run_task
from repro.obs import EventKind
from repro.obs.recorder import TraceSession

from . import bodies


class TestOffsetEstimation:
    def test_midpoint_formula(self):
        # Parent sends at 100, receives at 300; the worker read its clock at
        # the (assumed) midpoint 200, reporting 5200 -> offset -5000.
        assert estimate_offset_ns(100, 300, 5200) == -5000

    def test_identical_clocks_give_zero_offset(self):
        assert estimate_offset_ns(100, 200, 150) == 0


class TestWorkerTrack:
    def test_naming(self):
        assert worker_track("gpu", 3) == "gpu[w3]"


class TestWorkerEvents:
    def test_task_ships_its_exec_span_unnamed(self):
        msg = wire.TaskMsg(7, "r", None, wire.dumps_parts((bodies.add, (1, 2), {})), True)
        result = _run_task(msg, _Current())
        assert result.ok and result.events_dropped == 0
        (begin, end) = result.events
        # (kind, ts, region, name, arg) on the worker's clock; the parent's
        # events of region 7 carry its label.
        assert begin[0] == int(EventKind.EXEC_BEGIN) and end[0] == int(EventKind.EXEC_END)
        assert begin[2:] == (7, None, None)
        assert end[2:] == (7, None, "completed")
        assert begin[1] <= end[1]

    def test_untraced_task_ships_none(self):
        msg = wire.TaskMsg(7, "r", None, wire.dumps_parts((bodies.add, (1, 2), {})), False)
        assert _run_task(msg, _Current()).events == []


class TestMerge:
    def test_offset_track_and_thread_applied(self):
        session = TraceSession()
        session.start()
        merged = merge_worker_events(
            session,
            [(int(EventKind.EXEC_BEGIN), 1000, 7, "r", None)],
            offset_ns=500, track="pool[w0]", thread="pid 42",
        )
        session.stop()
        assert merged == 1
        (event,) = session.events()
        assert event.ts == 1500
        assert event.target == "pool[w0]"
        assert event.thread == "pid 42"
        assert event.kind is EventKind.EXEC_BEGIN

    def test_joins_the_workers_recorder_and_takes_the_region_label(self):
        session = TraceSession()
        session.start()
        session.emit(EventKind.DEQUEUE, target="pool", region=7, name="r@app.py:3")
        for ts in (1000, 2000):
            merge_worker_events(
                session, [(int(EventKind.EXEC_BEGIN), ts, 7, None, None)],
                offset_ns=0, track="pool[w0]", thread="pid 42",
            )
        session.stop()
        assert [e.name for e in session.events()] == ["r@app.py:3"] * 3
        stats = session.stats()
        assert stats["threads"] == 2  # this thread's recorder + pid 42's
        assert stats["per_thread"]["pid 42"]["recorded"] == 2

    def test_unknown_kind_values_skipped(self):
        session = TraceSession()
        session.start()
        merged = merge_worker_events(
            session,
            [(10_000, 0, None, None, None),
             (int(EventKind.EXEC_END), 1, None, None, None)],
            offset_ns=0, track="t", thread="x",
        )
        session.stop()
        assert merged == 1


class TestEndToEndTrace:
    def test_remote_region_has_full_lifecycle_on_one_clock(self, proc_rt):
        session = obs.enable()
        try:
            proc_rt.invoke_target_block("pool", TargetRegion(bodies.sleepy, 0.01))
            events = list(session.events())
        finally:
            obs.disable()
        kinds = {e.kind.name for e in events}
        assert {"REGION_SUBMIT", "ENQUEUE", "DEQUEUE"} <= kinds
        execs = [e for e in events if "[w" in (e.target or "")
                 and e.kind.name in ("EXEC_BEGIN", "EXEC_END")]
        assert len(execs) == 2, f"worker exec events missing: {kinds}"
        assert execs[0].thread.startswith("pid ")
        # Merged worker timestamps must sort after the parent-side dispatch
        # events -- the whole point of the clock handshake.
        dequeues = [e for e in events if e.kind.name == "DEQUEUE"]
        assert min(e.ts for e in execs) >= max(e.ts for e in dequeues)

    def test_every_event_of_a_process_lane_region_carries_its_label(self, proc_rt):
        region = TargetRegion(bodies.sleepy, 0.01, name="far", source="app.py:9")
        session = obs.enable()
        try:
            proc_rt.invoke_target_block("pool", region)
            events = [e for e in session.events() if e.region == region.seq]
        finally:
            obs.disable()
        assert {"REGION_SUBMIT", "ENQUEUE", "DEQUEUE", "EXEC_BEGIN", "EXEC_END"} <= {
            e.kind.name for e in events
        }
        assert [e.name for e in events] == ["far@app.py:9"] * len(events)

    def test_chrome_export_gives_workers_their_own_track(self, proc_rt):
        session = obs.enable()
        try:
            proc_rt.invoke_target_block("pool", TargetRegion(bodies.sleepy, 0.01))
            doc = obs.to_chrome_trace(session.events())
        finally:
            obs.disable()
        names = {
            ev["args"]["name"] for ev in doc["traceEvents"]
            if ev.get("ph") == "M" and ev.get("name") == "process_name"
        }
        assert any("[w" in n for n in names), names
