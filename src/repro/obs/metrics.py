"""Counters, and latency aggregation over the trace-event stream.

:class:`Tally` is the one counter type: ``PjRuntime.counters``,
``VirtualTarget.stats`` and the HTTP server's ``/stats`` counters all book
into one.  They answer *how many*; the rest of this module answers *how
long* — the quantities the paper's evaluation plots:

* **queue wait** — ENQUEUE → DEQUEUE: how long a region sat in the target's
  FIFO (the dispatch-latency signal of Figures 1 and 7);
* **execution** — EXEC_BEGIN → EXEC_END: the body itself;
* **end-to-end** — REGION_SUBMIT → EXEC_END: what the caller experienced.

Each is reported overall and per virtual target with count / mean / p50 /
p95 / p99 / max, computed exactly from the recorded stream (no binning
error; the streams the ring buffers keep are small enough to sort).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Hashable, Iterable

from .events import EventKind, TraceEvent

__all__ = [
    "LatencyStats", "Tally", "TargetMetrics", "TraceMetrics", "compute_metrics",
    "format_metrics", "percentile",
]


class _Books(threading.local):
    def __init__(self, tally: "Tally") -> None:  # on a thread's first read
        self.counts = tally._open()


class Tally:
    """Exact counters that any number of threads book into without a lock.

    Each thread books into its own plain ``dict``, ``tally.local.counts``
    (made at the thread's first read, *keys* at 0): ``counts[key] += 1`` is
    the whole booking, and :meth:`add` spells it for a key that may be new.
    The book of an ended thread folds into a base when the next thread opens
    one; :meth:`snapshot` sums the base and the books, and :meth:`reset`
    subtracts the totals from the base, since only its thread writes a book.
    """

    __slots__ = ("local", "_keys", "_lock", "_books", "_base")

    def __init__(self, keys: Iterable[Hashable] = ()) -> None:
        self._keys = tuple(keys)
        self._lock = threading.RLock()
        self._books: dict[threading.Thread, dict] = {}
        self._base = dict.fromkeys(self._keys, 0)
        self.local = _Books(self)

    def _open(self) -> dict:
        counts = dict.fromkeys(self._keys, 0)
        with self._lock:
            for ended in [t for t in self._books if not t.is_alive()]:
                for key, n in self._books.pop(ended).items():
                    self._base[key] = self._base.get(key, 0) + n
            self._books[threading.current_thread()] = counts
        return counts

    def add(self, key: Hashable) -> None:
        counts = self.local.counts
        counts[key] = counts.get(key, 0) + 1

    def snapshot(self) -> dict:
        """Totals since the last :meth:`reset`: *keys* first, in order,
        then any other key booked."""
        with self._lock:
            total = dict(self._base)
            # One C call per book: its thread may add a key meanwhile.
            books = [counts.copy() for counts in self._books.values()]
        for counts in books:
            for key, n in counts.items():
                total[key] = total.get(key, 0) + n
        return total

    def reset(self) -> None:
        with self._lock:
            for key, n in self.snapshot().items():
                self._base[key] = self._base.get(key, 0) - n


def percentile(samples: Iterable[float], pct: float) -> float:
    """Linear-interpolated percentile, *pct* in [0, 100] (numpy-free;
    deterministic).  The one definition: ``repro.bench.percentile`` (what
    ``benchmarks/e2e`` imports) and ``repro.sim.ResponseStats.percentile``
    are this function."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("percentile of empty sample set")
    if len(xs) == 1:
        return xs[0]
    rank = (pct / 100.0) * (len(xs) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return xs[lo]
    frac = rank - lo
    return xs[lo] * (1.0 - frac) + xs[hi] * frac


@dataclass
class LatencyStats:
    """Summary statistics of one latency population (milliseconds)."""

    count: int = 0
    mean: float = 0.0
    p50: float = 0.0
    p95: float = 0.0
    p99: float = 0.0
    max: float = 0.0

    @classmethod
    def from_ns(cls, samples_ns: Iterable[int]) -> "LatencyStats":
        ms = sorted(s / 1e6 for s in samples_ns)
        if not ms:
            return cls()
        return cls(
            count=len(ms),
            mean=sum(ms) / len(ms),
            p50=percentile(ms, 50.0),
            p95=percentile(ms, 95.0),
            p99=percentile(ms, 99.0),
            max=ms[-1],
        )

    def row(self, label: str) -> str:
        return (
            f"{label:<14} {self.count:>6} {self.mean:>9.3f} {self.p50:>9.3f} "
            f"{self.p95:>9.3f} {self.p99:>9.3f} {self.max:>9.3f}"
        )


@dataclass
class TargetMetrics:
    """The three latency populations for one virtual target."""

    queue_wait: LatencyStats = field(default_factory=LatencyStats)
    execution: LatencyStats = field(default_factory=LatencyStats)
    end_to_end: LatencyStats = field(default_factory=LatencyStats)


@dataclass
class TraceMetrics:
    """Aggregate view of a recorded trace."""

    overall: TargetMetrics = field(default_factory=TargetMetrics)
    per_target: dict[str, TargetMetrics] = field(default_factory=dict)
    kind_counts: dict[str, int] = field(default_factory=dict)
    regions_seen: int = 0
    inline_elided: int = 0
    pump_steals: int = 0


@dataclass
class _RegionTrack:
    target: str | None = None
    submit: int | None = None
    enqueue: int | None = None
    dequeue: int | None = None
    exec_begin: int | None = None
    exec_end: int | None = None


def compute_metrics(events: Iterable[TraceEvent]) -> TraceMetrics:
    """Fold an event stream into :class:`TraceMetrics`.

    Regions with incomplete lifecycles (still running, cancelled, or with
    events lost to ring wraparound) contribute only the intervals whose two
    endpoints were both recorded.
    """
    # Barrier events carry the awaited region's id for correlation, but their
    # target is where the barrier pumps (e.g. the EDT), not where the region
    # runs — only lifecycle events attribute a region to a target.
    lifecycle = {
        EventKind.REGION_SUBMIT,
        EventKind.ENQUEUE,
        EventKind.DEQUEUE,
        EventKind.EXEC_BEGIN,
        EventKind.EXEC_END,
        EventKind.INLINE_ELIDE,
        EventKind.CANCEL,
        EventKind.REJECT,
    }
    regions: dict[int, _RegionTrack] = {}
    metrics = TraceMetrics()
    for e in sorted(events, key=lambda ev: (ev.ts, ev.seq)):
        metrics.kind_counts[e.kind.name] = metrics.kind_counts.get(e.kind.name, 0) + 1
        if e.kind is EventKind.INLINE_ELIDE:
            metrics.inline_elided += 1
        elif e.kind is EventKind.PUMP_STEAL:
            metrics.pump_steals += 1
        if e.region is None:
            continue
        track = regions.setdefault(e.region, _RegionTrack())
        if e.target is not None and e.kind in lifecycle:
            track.target = e.target
        if e.kind is EventKind.REGION_SUBMIT and track.submit is None:
            track.submit = e.ts
        elif e.kind is EventKind.ENQUEUE and track.enqueue is None:
            track.enqueue = e.ts
        elif e.kind is EventKind.DEQUEUE and track.dequeue is None:
            track.dequeue = e.ts
        elif e.kind is EventKind.EXEC_BEGIN and track.exec_begin is None:
            track.exec_begin = e.ts
        elif e.kind is EventKind.EXEC_END:
            track.exec_end = e.ts

    metrics.regions_seen = len(regions)
    waits: dict[str | None, list[int]] = {}
    execs: dict[str | None, list[int]] = {}
    e2es: dict[str | None, list[int]] = {}
    for track in regions.values():
        if track.enqueue is not None and track.dequeue is not None:
            waits.setdefault(track.target, []).append(track.dequeue - track.enqueue)
        if track.exec_begin is not None and track.exec_end is not None:
            execs.setdefault(track.target, []).append(track.exec_end - track.exec_begin)
        if track.submit is not None and track.exec_end is not None:
            e2es.setdefault(track.target, []).append(track.exec_end - track.submit)

    def _flatten(d: dict[str | None, list[int]]) -> list[int]:
        return [v for vs in d.values() for v in vs]

    metrics.overall = TargetMetrics(
        queue_wait=LatencyStats.from_ns(_flatten(waits)),
        execution=LatencyStats.from_ns(_flatten(execs)),
        end_to_end=LatencyStats.from_ns(_flatten(e2es)),
    )
    for target in sorted(
        {t for t in (*waits, *execs, *e2es) if t is not None}
    ):
        metrics.per_target[target] = TargetMetrics(
            queue_wait=LatencyStats.from_ns(waits.get(target, ())),
            execution=LatencyStats.from_ns(execs.get(target, ())),
            end_to_end=LatencyStats.from_ns(e2es.get(target, ())),
        )
    return metrics


def format_metrics(metrics: TraceMetrics) -> str:
    """Human-readable table (milliseconds)."""
    header = (
        f"{'latency (ms)':<14} {'count':>6} {'mean':>9} {'p50':>9} "
        f"{'p95':>9} {'p99':>9} {'max':>9}"
    )
    lines = [
        f"trace metrics: {metrics.regions_seen} region(s), "
        f"{metrics.inline_elided} inline-elided, {metrics.pump_steals} pump-steal(s)",
        header,
        "-" * len(header),
        metrics.overall.queue_wait.row("queue-wait"),
        metrics.overall.execution.row("execution"),
        metrics.overall.end_to_end.row("end-to-end"),
    ]
    for target, tm in metrics.per_target.items():
        lines.append(f"target {target!r}:")
        lines.append(tm.queue_wait.row("  queue-wait"))
        lines.append(tm.execution.row("  execution"))
        lines.append(tm.end_to_end.row("  end-to-end"))
    counts = ", ".join(f"{k}={v}" for k, v in sorted(metrics.kind_counts.items()))
    lines.append(f"event counts: {counts or '(none)'}")
    return "\n".join(lines)
