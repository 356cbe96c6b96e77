"""Measurement: response-time statistics and throughput.

The paper's two metrics:

* §V-A — *"The response time shows the time flow from the event firing to
  the finish of its event handling.  The average response time of all events
  shows a general efficiency of processing of event handling."*
* §V-B — *"The throughput measures the application's ability to process
  requests."*
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..obs.metrics import percentile

__all__ = ["ResponseStats", "ThroughputMeter", "Series"]


class ResponseStats:
    """Accumulates (fired, finished) pairs and derives the paper's metrics."""

    def __init__(self) -> None:
        self._samples: list[float] = []
        self.first_fired: float | None = None
        self.last_finished: float | None = None

    def record(self, fired_at: float, finished_at: float) -> None:
        if finished_at < fired_at:
            raise ValueError("finish precedes fire")
        self._samples.append(finished_at - fired_at)
        if self.first_fired is None or fired_at < self.first_fired:
            self.first_fired = fired_at
        if self.last_finished is None or finished_at > self.last_finished:
            self.last_finished = finished_at

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def mean(self) -> float:
        if not self._samples:
            raise ValueError("no samples")
        return sum(self._samples) / len(self._samples)

    @property
    def maximum(self) -> float:
        if not self._samples:
            raise ValueError("no samples")
        return max(self._samples)

    def percentile(self, p: float) -> float:
        """Linear-interpolated percentile, p in [0, 100]."""
        if not self._samples:
            raise ValueError("no samples")
        if not 0.0 <= p <= 100.0:
            raise ValueError("percentile must be within [0, 100]")
        return percentile(self._samples, p)

    @property
    def median(self) -> float:
        return self.percentile(50.0)

    @property
    def samples(self) -> list[float]:
        return list(self._samples)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if not self._samples:
            return "<ResponseStats empty>"
        return f"<ResponseStats n={self.count} mean={self.mean * 1000:.1f}ms>"


class ThroughputMeter:
    """Counts completions over a virtual-time window."""

    def __init__(self) -> None:
        self.completed = 0
        self.started_at: float | None = None
        self.finished_at: float | None = None

    def mark_start(self, now: float) -> None:
        if self.started_at is None:
            self.started_at = now

    def mark_completion(self, now: float) -> None:
        self.completed += 1
        self.finished_at = now

    @property
    def elapsed(self) -> float:
        if self.started_at is None or self.finished_at is None:
            return 0.0
        return self.finished_at - self.started_at

    @property
    def throughput(self) -> float:
        """Completions per virtual second."""
        if self.elapsed <= 0:
            return 0.0
        return self.completed / self.elapsed


@dataclass
class Series:
    """One plotted line: an approach's y-values over the swept x-values."""

    label: str
    x: list[float] = field(default_factory=list)
    y: list[float] = field(default_factory=list)

    def add(self, x: float, y: float) -> None:
        self.x.append(x)
        self.y.append(y)

    def as_rows(self) -> list[tuple[float, float]]:
        return list(zip(self.x, self.y))
