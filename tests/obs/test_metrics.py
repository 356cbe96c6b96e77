"""Latency aggregation: percentile math on synthetic streams, end-to-end
sanity on a real run, and the diagnostic_dump integration."""

from __future__ import annotations

import time

import pytest

from repro import obs
from repro.obs import (
    EventKind,
    LatencyStats,
    TraceEvent,
    compute_metrics,
    format_metrics,
)


def _ev(kind, ts, *, target="w", region=0, thread="t", name=None, arg=None):
    return TraceEvent(kind, ts, thread, target, region, name, arg)


class TestLatencyStats:
    def test_empty(self):
        stats = LatencyStats.from_ns([])
        assert stats.count == 0
        assert stats.p99 == 0.0

    def test_single_sample(self):
        stats = LatencyStats.from_ns([2_000_000])
        assert stats.count == 1
        assert stats.mean == stats.p50 == stats.p99 == stats.max == 2.0

    def test_percentiles_on_uniform_ramp(self):
        # 1..100 ms: p50 interpolates to 50.5, p95 to 95.05, max is 100.
        stats = LatencyStats.from_ns([i * 1_000_000 for i in range(1, 101)])
        assert stats.count == 100
        assert stats.p50 == pytest.approx(50.5)
        assert stats.p95 == pytest.approx(95.05)
        assert stats.p99 == pytest.approx(99.01)
        assert stats.max == 100.0
        assert stats.p50 <= stats.p95 <= stats.p99 <= stats.max


class TestOnePercentile:
    def test_bench_sim_and_obs_share_one_definition(self):
        import repro.bench
        import repro.bench.harness
        from repro.obs.metrics import percentile
        from repro.sim import ResponseStats

        assert repro.bench.percentile is percentile
        assert repro.bench.harness.percentile is percentile
        samples = [0.4, 0.1, 0.35, 0.2, 0.9]
        stats = ResponseStats()
        for s in samples:
            stats.record(0.0, s)
        for pct in (0, 37.5, 50, 95, 100):
            assert stats.percentile(pct) == percentile(samples, pct)
        ramp = LatencyStats.from_ns([i * 1_000_000 for i in range(1, 8)])
        assert ramp.p95 == percentile([float(i) for i in range(1, 8)], 95.0)

    def test_empty_and_out_of_range_keep_their_errors(self):
        from repro.obs.metrics import percentile
        from repro.sim import ResponseStats

        with pytest.raises(ValueError, match="empty"):
            percentile([], 50)
        with pytest.raises(ValueError, match="no samples"):
            ResponseStats().percentile(50)
        stats = ResponseStats()
        stats.record(0.0, 1.0)
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            stats.percentile(101)


class TestComputeMetrics:
    def test_full_lifecycle_intervals(self):
        ns = 1_000_000  # 1 ms
        events = [
            _ev(EventKind.REGION_SUBMIT, 0 * ns),
            _ev(EventKind.ENQUEUE, 1 * ns),
            _ev(EventKind.DEQUEUE, 4 * ns),
            _ev(EventKind.EXEC_BEGIN, 5 * ns),
            _ev(EventKind.EXEC_END, 10 * ns, arg="completed"),
        ]
        m = compute_metrics(events)
        assert m.regions_seen == 1
        assert m.overall.queue_wait.mean == pytest.approx(3.0)
        assert m.overall.execution.mean == pytest.approx(5.0)
        assert m.overall.end_to_end.mean == pytest.approx(10.0)
        assert m.per_target["w"].execution.count == 1

    def test_incomplete_lifecycle_contributes_partial_intervals(self):
        ns = 1_000_000
        events = [
            _ev(EventKind.REGION_SUBMIT, 0),
            _ev(EventKind.ENQUEUE, 1 * ns),
            # dequeue/exec lost (wraparound or still running)
        ]
        m = compute_metrics(events)
        assert m.regions_seen == 1
        assert m.overall.queue_wait.count == 0
        assert m.overall.end_to_end.count == 0

    def test_barrier_events_do_not_steal_target_attribution(self):
        ns = 1_000_000
        events = [
            _ev(EventKind.REGION_SUBMIT, 0, target="worker"),
            _ev(EventKind.ENQUEUE, 1 * ns, target="worker"),
            _ev(EventKind.BARRIER_ENTER, 2 * ns, target="edt"),
            _ev(EventKind.DEQUEUE, 3 * ns, target="worker"),
            _ev(EventKind.EXEC_BEGIN, 4 * ns, target="worker"),
            _ev(EventKind.EXEC_END, 5 * ns, target="worker"),
            _ev(EventKind.BARRIER_EXIT, 6 * ns, target="edt"),
        ]
        m = compute_metrics(events)
        assert list(m.per_target) == ["worker"]

    def test_counts_inline_and_steals(self):
        events = [
            _ev(EventKind.INLINE_ELIDE, 1, region=1),
            _ev(EventKind.PUMP_STEAL, 2, region=2),
            _ev(EventKind.PUMP_STEAL, 3, region=2),
        ]
        m = compute_metrics(events)
        assert m.inline_elided == 1
        assert m.pump_steals == 2
        assert m.kind_counts["PUMP_STEAL"] == 2


def test_real_run_metrics_sane(tracing, worker_rt):
    for _ in range(10):
        worker_rt.invoke_target_block("worker", lambda: time.sleep(0.001))
    obs.disable()
    m = compute_metrics(obs.session().events())
    assert m.regions_seen == 10
    assert m.overall.execution.count == 10
    assert m.overall.execution.p50 >= 1.0  # each body slept >= 1 ms
    # end-to-end >= execution for every sample population
    assert m.overall.end_to_end.mean >= m.overall.execution.mean
    text = format_metrics(m)
    assert "queue-wait" in text and "target 'worker'" in text


def test_diagnostic_dump_reports_trace_state(tracing, worker_rt):
    worker_rt.invoke_target_block("worker", lambda: None)
    dump = worker_rt.diagnostic_dump()
    assert "trace: on" in dump
    obs.disable()
    assert "trace: off" in worker_rt.diagnostic_dump()


def test_trace_enabled_icv_proxies_global_session(rt):
    assert rt.trace_enabled_var is False
    rt.trace_enabled_var = True
    try:
        assert obs.is_enabled()
        assert rt.trace_enabled_var is True
    finally:
        rt.trace_enabled_var = False
    assert not obs.is_enabled()
