"""Unit tests of the trace-invariant verifier over synthetic event streams.

Each invariant gets a minimal stream that breaks exactly it, plus the
near-miss stream that must stay clean — the verifier's false-positive rate
matters as much as its recall."""

from __future__ import annotations

from repro.check import (
    Violation,
    crosscheck_outcomes,
    verify_events,
    verify_quiescence,
)
from repro.core.region import TargetRegion
from repro.obs.events import EventKind, TraceEvent

K = EventKind


def ev(kind, ts, *, thread="t0", target="w", region=None, name=None, arg=None):
    return TraceEvent(kind, ts, thread, target, region, name, arg)


def lifecycle(region=1, name="r", outcome="completed", ts=0):
    """A complete, healthy ENQUEUE→DEQUEUE→EXEC chain."""
    return [
        ev(K.ENQUEUE, ts + 0, region=region, name=name),
        ev(K.DEQUEUE, ts + 1, region=region, name=name),
        ev(K.EXEC_BEGIN, ts + 2, region=region, name=name),
        ev(K.EXEC_END, ts + 3, region=region, name=name, arg=outcome),
    ]


def invariants(violations):
    return sorted({v.invariant for v in violations})


def test_clean_stream_has_no_violations():
    events = lifecycle() + [ev(K.QUEUE_DEPTH, 10, arg=0)]
    assert verify_events(events) == []


def test_enqueue_without_dequeue_or_cancel_is_flagged():
    events = [ev(K.ENQUEUE, 0, region=1, name="lost")]
    out = verify_events(events)
    assert invariants(out) == ["enqueue-unresolved"]
    assert "lost" in out[0].detail


def test_cancel_resolves_an_enqueue():
    events = [
        ev(K.ENQUEUE, 0, region=1, name="r"),
        ev(K.CANCEL, 1, region=1, name="r"),
    ]
    assert verify_events(events) == []


def test_cancelled_then_corpse_dequeued_is_clean():
    # Shutdown cancelled a queued region; the worker later discards the
    # corpse: DEQUEUE without an EXEC span is the correct shape.
    events = [
        ev(K.ENQUEUE, 0, region=1, name="r"),
        ev(K.CANCEL, 1, region=1, name="r"),
        ev(K.DEQUEUE, 2, region=1, name="r"),
    ]
    assert verify_events(events) == []


def test_dequeue_without_enqueue_is_flagged():
    events = [ev(K.DEQUEUE, 0, region=1, name="ghost")]
    assert invariants(verify_events(events)) == ["dequeue-without-enqueue"]


def test_exec_without_any_handoff_is_flagged():
    events = [
        ev(K.EXEC_BEGIN, 0, region=1, name="r"),
        ev(K.EXEC_END, 1, region=1, name="r", arg="completed"),
    ]
    assert invariants(verify_events(events)) == ["exec-without-dequeue"]


def test_caller_runs_reject_legitimizes_queueless_exec():
    events = [
        ev(K.REJECT, 0, region=1, name="r", arg="caller_runs"),
        ev(K.EXEC_BEGIN, 1, region=1, name="r"),
        ev(K.EXEC_END, 2, region=1, name="r", arg="completed"),
    ]
    assert verify_events(events) == []


def test_plain_reject_does_not_legitimize_exec():
    events = [
        ev(K.REJECT, 0, region=1, name="r", arg="reject"),
        ev(K.EXEC_BEGIN, 1, region=1, name="r"),
        ev(K.EXEC_END, 2, region=1, name="r", arg="completed"),
    ]
    assert invariants(verify_events(events)) == ["exec-without-dequeue"]


def test_inline_elide_legitimizes_queueless_exec():
    events = [
        ev(K.INLINE_ELIDE, 0, region=1, name="r"),
        ev(K.EXEC_BEGIN, 1, region=1, name="r"),
        ev(K.EXEC_END, 2, region=1, name="r", arg="completed"),
    ]
    assert verify_events(events) == []


def test_double_exec_is_flagged():
    events = lifecycle() + [
        ev(K.EXEC_BEGIN, 10, region=1, name="r"),
        ev(K.EXEC_END, 11, region=1, name="r", arg="completed"),
    ]
    assert "double-exec" in invariants(verify_events(events))


def test_exec_after_cancel_with_fabricated_outcome_is_flagged():
    events = [
        ev(K.ENQUEUE, 0, region=1, name="r"),
        ev(K.CANCEL, 1, region=1, name="r"),
        ev(K.DEQUEUE, 2, region=1, name="r"),
        ev(K.EXEC_BEGIN, 3, region=1, name="r"),
        ev(K.EXEC_END, 4, region=1, name="r", arg="completed"),
    ]
    assert invariants(verify_events(events)) == ["exec-after-cancel"]


def test_cancel_race_stamped_cancelled_is_clean():
    # The legitimate shape of the cancel-vs-corpse-check race: the span
    # exists but truthfully records that run() no-opped.
    events = [
        ev(K.ENQUEUE, 0, region=1, name="r"),
        ev(K.DEQUEUE, 1, region=1, name="r"),
        ev(K.EXEC_BEGIN, 2, region=1, name="r"),
        ev(K.CANCEL, 3, region=1, name="r"),
        ev(K.EXEC_END, 4, region=1, name="r", arg="cancelled"),
    ]
    assert verify_events(events) == []


def test_invalid_outcome_is_flagged():
    events = lifecycle(outcome="exploded")
    assert "invalid-outcome" in invariants(verify_events(events))


def test_negative_queue_depth_is_flagged():
    events = [ev(K.QUEUE_DEPTH, 0, arg=-1)]
    assert invariants(verify_events(events)) == ["negative-depth"]


def test_unclosed_span_is_flagged():
    events = [
        ev(K.ENQUEUE, 0, region=1, name="r"),
        ev(K.DEQUEUE, 1, region=1, name="r"),
        ev(K.EXEC_BEGIN, 2, region=1, name="r"),
    ]
    assert invariants(verify_events(events)) == ["span-unclosed"]


def test_interleaved_span_close_is_flagged():
    events = lifecycle(region=1, name="a")[:3] + [
        ev(K.BARRIER_ENTER, 5, name="b"),
        ev(K.EXEC_END, 6, region=1, name="a", arg="completed"),  # out of order
        ev(K.BARRIER_EXIT, 7, name="b"),
    ]
    assert "span-mismatch" in invariants(verify_events(events))


def test_spans_nest_across_threads_independently():
    events = (
        lifecycle(region=1, name="a", ts=0)
        + [
            ev(K.ENQUEUE, 10, thread="t1", region=2, name="b"),
            ev(K.DEQUEUE, 11, thread="t1", region=2, name="b"),
            ev(K.EXEC_BEGIN, 12, thread="t1", region=2, name="b"),
            ev(K.BARRIER_ENTER, 13, thread="t1", region=2, name="b"),
            ev(K.PUMP_STEAL, 14, thread="t1", region=2, name="b"),
            ev(K.BARRIER_EXIT, 15, thread="t1", region=2, name="b"),
            ev(K.EXEC_END, 16, thread="t1", region=2, name="b", arg="completed"),
        ]
    )
    assert verify_events(events) == []


def test_violations_are_sorted_and_deduplicated():
    events = [
        ev(K.ENQUEUE, 0, region=1, name="z"),
        ev(K.ENQUEUE, 1, region=2, name="a"),
    ]
    out = verify_events(events)
    assert [v.invariant for v in out] == ["enqueue-unresolved"] * 2
    details = [v.detail for v in out]
    assert details == sorted(details)
    assert Violation("x", "d") == Violation("x", "d")


class _FakeTarget:
    def __init__(self, name, count):
        self.name = name
        self._count = count

    def work_count(self):
        return self._count


def test_quiescence_flags_leftover_work():
    out = verify_quiescence([_FakeTarget("a", 0), _FakeTarget("b", 2)])
    assert invariants(out) == ["backlog-leak"]
    assert "'b'" in out[0].detail


def test_crosscheck_flags_outcome_lie_against_region_state():
    region = TargetRegion(lambda: None, name="truth")
    region.run()  # COMPLETED
    events = [ev(K.EXEC_END, 0, region=region.seq, name="truth", arg="failed")]
    out = crosscheck_outcomes(events, regions=[("truth", region)])
    assert invariants(out) == ["outcome-lie"]


def test_crosscheck_accepts_matching_outcomes_and_skips_unexecuted():
    done = TargetRegion(lambda: None, name="ok")
    done.run()
    never_ran = TargetRegion(lambda: None, name="withdrawn")
    never_ran.cancel()
    events = [ev(K.EXEC_END, 0, region=done.seq, name="ok", arg="completed")]
    assert crosscheck_outcomes(
        events, regions=[("ok", done), ("withdrawn", never_ran)]
    ) == []


def test_crosscheck_flags_nonterminal_region():
    pending = TargetRegion(lambda: None, name="stuck")
    out = crosscheck_outcomes([], regions=[("stuck", pending)])
    assert invariants(out) == ["nonterminal-at-quiescence"]
