"""Recorder mechanics through the session: wraparound, drop accounting,
null mode, per-thread isolation, and the disabled fast path."""

from __future__ import annotations

import threading

import pytest

from repro import obs
from repro.obs import EventKind


def _emit_regions(n: int) -> None:
    for i in range(n):
        obs.emit(EventKind.EXEC_BEGIN, region=i)


class TestRingRecorder:
    """A thread's ring is a ``deque(maxlen=buffer_size)`` of records."""

    def test_append_below_capacity_keeps_everything(self):
        obs.enable(buffer_size=8)
        _emit_regions(5)
        stats = obs.session().stats()
        assert (stats["recorded"], stats["retained"], stats["dropped"]) == (5, 5, 0)
        assert [e.region for e in obs.session().events()] == [0, 1, 2, 3, 4]

    def test_wraparound_drops_oldest_and_counts(self):
        # Each thread's ring wraps on its own: the busy one keeps its newest
        # 8, still oldest-first, and the quiet one loses nothing.
        obs.enable(buffer_size=8)
        _emit_regions(20)
        quiet = threading.Thread(
            target=lambda: obs.emit(EventKind.EXEC_END, region=99), name="quiet"
        )
        quiet.start()
        quiet.join()
        rows = obs.session().stats()["per_thread"]
        busy = rows[threading.current_thread().name]
        assert (busy["recorded"], busy["retained"], busy["dropped"]) == (20, 8, 12)
        assert (rows["quiet"]["retained"], rows["quiet"]["dropped"]) == (1, 0)
        events = obs.session().events()
        assert [e.region for e in events if e.thread != "quiet"] == list(range(12, 20))
        assert [e.region for e in events if e.thread == "quiet"] == [99]

    def test_seq_is_monotonic_across_wraparound(self):
        obs.enable(buffer_size=4)
        _emit_regions(10)
        seqs = [e.seq for e in obs.session().events()]
        assert seqs == [6, 7, 8, 9]  # the append index of each retained event

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            obs.enable(buffer_size=0)


class TestNullRecorder:
    """Null mode is a ring of capacity 0."""

    def test_counts_but_stores_nothing(self):
        obs.enable(null=True)
        _emit_regions(100)
        stats = obs.session().stats()
        assert stats["null"] is True
        assert (stats["recorded"], stats["retained"], stats["dropped"]) == (100, 0, 100)
        assert obs.session().events() == []


class TestTraceSession:
    def test_disabled_session_records_nothing(self):
        session = obs.session()
        assert not session.enabled
        session.emit(EventKind.ENQUEUE, target="w")
        assert session.events() == []
        assert session.stats()["recorded"] == 0

    def test_emit_requires_no_explicit_guard(self, tracing):
        obs.emit(EventKind.ENQUEUE, target="w", region=1, name="r")
        (event,) = obs.session().events()
        assert event.kind is EventKind.ENQUEUE
        assert event.target == "w"
        assert event.thread == threading.current_thread().name

    def test_null_mode_counts_without_retaining(self):
        obs.enable(null=True)
        for _ in range(10):
            obs.emit(EventKind.ENQUEUE, target="w")
        stats = obs.session().stats()
        assert stats["recorded"] == 10
        assert stats["retained"] == 0
        assert obs.session().events() == []

    def test_buffer_size_bounds_retention(self):
        obs.enable(buffer_size=8)
        for i in range(20):
            obs.emit(EventKind.ENQUEUE, target="w", region=i)
        stats = obs.session().stats()
        assert stats["recorded"] == 20
        assert stats["retained"] == 8
        assert stats["dropped"] == 12
        assert [e.region for e in obs.session().events()] == list(range(12, 20))

    def test_per_thread_recorders(self, tracing):
        def worker():
            obs.emit(EventKind.EXEC_BEGIN, target="w")
            obs.emit(EventKind.EXEC_END, target="w")

        threads = [threading.Thread(target=worker, name=f"rec-{i}") for i in range(3)]
        obs.emit(EventKind.REGION_SUBMIT, target="w")
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = obs.session().stats()
        assert stats["threads"] == 4  # main + 3 workers
        assert stats["recorded"] == 7
        assert set(stats["per_thread"]) >= {"rec-0", "rec-1", "rec-2"}

    def test_per_thread_rows_add_up_to_recorded(self, tracing):
        # A re-created pool reuses its lane names: two threads of one name
        # are one row, and no recorder's count goes missing from it.
        def lane():
            obs.emit(EventKind.EXEC_BEGIN, target="w")

        for _ in range(2):
            t = threading.Thread(target=lane, name="lane-0")
            t.start()
            t.join()
        stats = obs.session().stats()
        assert stats["threads"] == 2
        assert stats["per_thread"]["lane-0"]["recorded"] == 2
        rows = stats["per_thread"].values()
        for key in ("recorded", "retained", "dropped"):
            assert sum(row[key] for row in rows) == stats[key]

    def test_restart_abandons_stale_recorders(self, tracing):
        obs.emit(EventKind.ENQUEUE, target="w")
        obs.enable()  # new window: generation bump
        obs.emit(EventKind.DEQUEUE, target="w")
        events = obs.session().events()
        assert [e.kind for e in events] == [EventKind.DEQUEUE]

    def test_stop_keeps_events_readable(self, tracing):
        obs.emit(EventKind.ENQUEUE, target="w")
        obs.disable()
        assert len(obs.session().events()) == 1
        obs.session().clear()
        assert obs.session().events() == []

    def test_describe_mentions_counts(self, tracing):
        obs.emit(EventKind.ENQUEUE, target="w")
        text = obs.session().describe()
        assert "trace: on" in text
        assert "recorded=1" in text
