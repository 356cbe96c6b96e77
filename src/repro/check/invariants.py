"""Trace-invariant verifier: what a correct dispatch trace must look like.

The runtime's observable contract (docs/OBSERVABILITY.md) is a set of
*lifecycle invariants* over the :mod:`repro.obs` event stream.  Every
recorded window — each ``repro check`` phase (:mod:`repro.check.stress`)
and each ``repro explore`` run (:mod:`repro.explore.explorer`) — is judged
by one function, :func:`verify_session`; any bug that loses, double-runs,
or mis-reports work shows up as a :class:`Violation` naming the broken
invariant.

Checked invariants (the names appear in ``repro check`` reports):

``enqueue-unresolved``
    Every ``ENQUEUE`` must be matched by a later ``DEQUEUE`` or a ``CANCEL``
    for the same item: queues must not swallow work.
``dequeue-without-enqueue``
    An item cannot leave a queue more often than it entered.
``exec-without-dequeue``
    An ``EXEC_BEGIN`` requires a queue handoff (``DEQUEUE``), an inline
    elision (``INLINE_ELIDE``), or a legitimate queue bypass (``REJECT`` with
    ``arg="caller_runs"``).
``double-exec``
    A region body runs at most once.
``exec-after-cancel``
    A cancelled item must not execute: if both ``CANCEL`` and ``EXEC_BEGIN``
    exist for one item, the corresponding ``EXEC_END`` must record outcome
    ``"cancelled"`` (the dispatch found a corpse and ``run()`` no-opped).
``invalid-outcome``
    ``EXEC_END.arg`` is one of ``completed`` / ``failed`` / ``cancelled``.
``span-mismatch`` / ``span-unclosed``
    ``EXEC``, ``BARRIER`` and ``TAG_WAIT`` begin/end events nest LIFO per
    thread and every opened span closes.
``negative-depth``
    ``QUEUE_DEPTH`` samples are non-negative integers.
``backlog-leak``
    (:func:`verify_quiescence`) a quiesced target's ``work_count()`` is zero
    — control sentinels may remain, work may not.
``outcome-lie`` / ``nonterminal-at-quiescence``
    (:func:`crosscheck_outcomes`) the ``EXEC_END`` outcome in the trace must
    agree with the ground truth the harness holds in-process: the region's
    terminal state.
``trace-overflow``
    (:func:`verify_session`) the ring buffers dropped events, so the window
    cannot be verified at all.

Violation messages deliberately avoid timestamps, thread names, and raw
region sequence numbers wherever a stable label exists: ``repro check
--seed N`` must reproduce a report byte-for-byte.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

from ..core.region import RegionState, TargetRegion
from ..obs.events import EventKind, TraceEvent
from ..obs.recorder import TraceSession

__all__ = [
    "Violation",
    "EXEC_OUTCOMES",
    "verify_session",
    "verify_events",
    "verify_quiescence",
    "crosscheck_outcomes",
]

#: The only truthful values of ``EXEC_END.arg``.
EXEC_OUTCOMES = ("completed", "failed", "cancelled")

_SPAN_BEGIN_FOR = {
    EventKind.EXEC_END: EventKind.EXEC_BEGIN,
    EventKind.BARRIER_EXIT: EventKind.BARRIER_ENTER,
    EventKind.TAG_WAIT_END: EventKind.TAG_WAIT_BEGIN,
}

_STATE_OUTCOME = {
    RegionState.COMPLETED: "completed",
    RegionState.FAILED: "failed",
    RegionState.CANCELLED: "cancelled",
}


class Violation:
    """One broken invariant, with a deterministic, human-readable detail."""

    __slots__ = ("invariant", "detail", "target", "name")

    def __init__(
        self,
        invariant: str,
        detail: str,
        *,
        target: str | None = None,
        name: str | None = None,
    ) -> None:
        self.invariant = invariant
        self.detail = detail
        self.target = target
        self.name = name

    def key(self) -> tuple[str, str]:
        """Stable sort/dedup key: reports list violations in this order."""
        return (self.invariant, self.detail)

    def render(self) -> str:
        return f"[{self.invariant}] {self.detail}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Violation) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Violation {self.render()}>"


class _ItemTally:
    """Per-item (region id) event counts accumulated in one pass."""

    __slots__ = (
        "enqueues", "dequeues", "cancels", "inlines", "caller_runs",
        "exec_begins", "last_end_arg", "label", "target",
    )

    def __init__(self) -> None:
        self.enqueues = 0
        self.dequeues = 0
        self.cancels = 0
        self.inlines = 0
        self.caller_runs = 0
        self.exec_begins = 0
        self.last_end_arg: object = None
        self.label: str | None = None
        self.target: str | None = None

    def note(self, event: TraceEvent) -> None:
        if event.name is not None:
            self.label = event.name
        if event.target is not None:
            self.target = event.target

    def describe(self, rid: int) -> str:
        return self.label if self.label is not None else f"region #{rid}"


def _span_label(kind: EventKind, region: int | None, name: str | None) -> str:
    what = kind.name.rsplit("_", 1)[0]
    bits = [what]
    if name is not None:
        bits.append(name)
    elif region is not None:
        bits.append(f"#{region}")
    return " ".join(bits)


def verify_events(events: Sequence[TraceEvent]) -> list[Violation]:
    """Check the lifecycle and nesting invariants over one merged timeline.

    *events* must be time-ordered (what :meth:`TraceSession.events` returns).
    Returns violations sorted by :meth:`Violation.key`, deduplicated.
    """
    tallies: dict[int, _ItemTally] = {}
    stacks: dict[str, list[tuple[EventKind, int | None, str | None]]] = {}
    out: list[Violation] = []

    for e in events:
        kind = e.kind
        rid = e.region
        tally = None
        if rid is not None:
            tally = tallies.get(rid)
            if tally is None:
                tally = tallies[rid] = _ItemTally()
            tally.note(e)

        if kind is EventKind.ENQUEUE:
            if tally is not None:
                tally.enqueues += 1
        elif kind is EventKind.DEQUEUE:
            if tally is not None:
                tally.dequeues += 1
        elif kind is EventKind.CANCEL:
            if tally is not None:
                tally.cancels += 1
        elif kind is EventKind.INLINE_ELIDE:
            if tally is not None:
                tally.inlines += 1
        elif kind is EventKind.REJECT:
            if tally is not None and e.arg == "caller_runs":
                tally.caller_runs += 1
        elif kind is EventKind.QUEUE_DEPTH:
            if not isinstance(e.arg, int) or e.arg < 0:
                out.append(Violation(
                    "negative-depth",
                    f"QUEUE_DEPTH sample of {e.arg!r} on target {e.target!r}",
                    target=e.target,
                ))
        elif kind.is_span_begin:
            if kind is EventKind.EXEC_BEGIN and tally is not None:
                tally.exec_begins += 1
            stacks.setdefault(e.thread, []).append((kind, rid, e.name))
        elif kind.is_span_end:
            if kind is EventKind.EXEC_END:
                if e.arg not in EXEC_OUTCOMES:
                    out.append(Violation(
                        "invalid-outcome",
                        f"EXEC_END for {_span_label(kind, rid, e.name)!r} carries "
                        f"outcome {e.arg!r} (expected one of {', '.join(EXEC_OUTCOMES)})",
                        target=e.target, name=e.name,
                    ))
                if tally is not None:
                    tally.last_end_arg = e.arg
            begin = _SPAN_BEGIN_FOR[kind]
            stack = stacks.setdefault(e.thread, [])
            frame = (begin, rid, e.name)
            if stack and stack[-1] == frame:
                stack.pop()
            else:
                out.append(Violation(
                    "span-mismatch",
                    f"{_span_label(kind, rid, e.name)} closed while "
                    + (f"{_span_label(*stack[-1])} was innermost"
                       if stack else "no span was open"),
                    target=e.target, name=e.name,
                ))
                # Resync: drop the matching frame if it is open somewhere
                # deeper, so one tear does not cascade into N reports.
                if frame in stack:
                    stack.remove(frame)

    for thread_stack in stacks.values():
        for kind, rid, name in thread_stack:
            out.append(Violation(
                "span-unclosed",
                f"{_span_label(kind, rid, name)} was opened but never closed",
                name=name,
            ))

    for rid, tally in tallies.items():
        label = tally.describe(rid)
        if tally.dequeues > tally.enqueues:
            out.append(Violation(
                "dequeue-without-enqueue",
                f"{label}: dequeued {tally.dequeues}x but enqueued only "
                f"{tally.enqueues}x (target {tally.target!r})",
                target=tally.target, name=tally.label,
            ))
        elif tally.enqueues > tally.dequeues + tally.cancels:
            out.append(Violation(
                "enqueue-unresolved",
                f"{label}: enqueued {tally.enqueues}x, dequeued {tally.dequeues}x, "
                f"cancelled {tally.cancels}x — work swallowed by target "
                f"{tally.target!r}",
                target=tally.target, name=tally.label,
            ))
        if tally.exec_begins > 1:
            out.append(Violation(
                "double-exec",
                f"{label}: body started {tally.exec_begins}x (must run at most once)",
                target=tally.target, name=tally.label,
            ))
        if (
            tally.exec_begins > 0
            and tally.dequeues == 0
            and tally.inlines == 0
            and tally.caller_runs == 0
        ):
            out.append(Violation(
                "exec-without-dequeue",
                f"{label}: executed without a DEQUEUE, INLINE_ELIDE or "
                f"caller_runs REJECT (target {tally.target!r})",
                target=tally.target, name=tally.label,
            ))
        if tally.cancels > 0 and tally.exec_begins > 0 and tally.last_end_arg != "cancelled":
            out.append(Violation(
                "exec-after-cancel",
                f"{label}: executed after CANCEL with outcome "
                f"{tally.last_end_arg!r} (a cancelled item may only produce a "
                f"no-op span stamped 'cancelled')",
                target=tally.target, name=tally.label,
            ))

    return _finalize(out)


def verify_quiescence(targets: Iterable[Any]) -> list[Violation]:
    """After shutdown+join, no target may still hold work.

    Control sentinels (re-posted shutdown markers, barrier wakeups) are
    excluded by construction: the check reads ``work_count()``, the
    sentinel-free backlog figure.
    """
    out: list[Violation] = []
    for target in targets:
        count = target.work_count()
        if count != 0:
            out.append(Violation(
                "backlog-leak",
                f"target {target.name!r} still holds {count} work item(s) "
                "at quiescence",
                target=target.name,
            ))
    return _finalize(out)


def crosscheck_outcomes(
    events: Sequence[TraceEvent],
    regions: Iterable[tuple[str, TargetRegion]] = (),
) -> list[Violation]:
    """Compare trace-recorded ``EXEC_END`` outcomes against ground truth.

    *regions* are ``(label, region)`` pairs the harness still holds; each
    region's terminal state is authoritative.  A region the trace never saw
    finish (no ``EXEC_END``) is not an error: it may legitimately have been
    cancelled before executing, or died with a remote worker.
    """
    ends: dict[int, TraceEvent] = {}
    for e in events:
        if e.kind is EventKind.EXEC_END and e.region is not None:
            ends.setdefault(e.region, e)

    out: list[Violation] = []
    for label, region in regions:
        state = region.state
        if not state.is_terminal:
            out.append(Violation(
                "nonterminal-at-quiescence",
                f"region {label!r} is still {state.value!r} after quiescence",
                name=label,
            ))
            continue
        end = ends.get(region.seq)
        if end is None:
            continue  # cancelled before executing, or executed untraced
        expected = _STATE_OUTCOME[state]
        if end.arg != expected:
            out.append(Violation(
                "outcome-lie",
                f"trace records outcome {end.arg!r} for region {label!r} but "
                f"its terminal state is {state.value!r}",
                target=end.target, name=label,
            ))
    return _finalize(out)


def verify_session(
    session: TraceSession,
    *,
    found: Iterable[Violation] = (),
    regions: Iterable[tuple[str, TargetRegion]] = (),
    targets: Iterable[Any] = (),
    tamper: Callable[[list[TraceEvent]], list[TraceEvent]] | None = None,
    expect: Callable[[list[TraceEvent]], Iterable[Violation]] | None = None,
) -> list[Violation]:
    """The verdict on one recorded window: stop *session* and judge it.

    *found* are violations the caller already observed live (stuck handles,
    a deadlocked schedule, ...).  A lossy trace cannot be verified —
    unmatched spans would be ring overflow, not runtime bugs — so any
    dropped event adds one ``trace-overflow`` and nothing else.  Otherwise
    the events, after the optional *tamper*, go through
    :func:`verify_events`, :func:`crosscheck_outcomes` against *regions*,
    :func:`verify_quiescence` of *targets*, and the phase's own
    *expect*.  Returns everything sorted and deduplicated.
    """
    session.stop()
    out = list(found)
    dropped = session.stats()["dropped"]
    if dropped:
        out.append(Violation(
            "trace-overflow",
            f"ring buffers dropped {dropped} event(s); grow the buffer_size",
        ))
        return _finalize(out)
    events = session.events()
    if tamper is not None:
        events = tamper(events)
    out += verify_events(events)
    out += crosscheck_outcomes(events, regions)
    out += verify_quiescence(targets)
    if expect is not None:
        out += expect(events)
    return _finalize(out)


def _finalize(violations: list[Violation]) -> list[Violation]:
    """Sort by stable key and drop duplicates (idempotent)."""
    seen: set[tuple[str, str]] = set()
    out: list[Violation] = []
    for v in sorted(violations, key=Violation.key):
        if v.key() not in seen:
            seen.add(v.key())
            out.append(v)
    return out
