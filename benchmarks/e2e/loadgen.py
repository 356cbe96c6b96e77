"""Seeded load generator: open (Poisson, timed from due) and closed phases.

One pool of *inflight* threads issues every operation, so at most that many
are in flight (for HTTP: that many keep-alive connections).  In the open
phase each thread takes the next arrival of a precomputed Poisson schedule,
sleeps until it is due and runs it; an arrival that finds every thread busy
waits, and that wait counts, because latency runs **from the due time**.
In the closed phase each thread issues its next operation as soon as the
previous one completes.  ``repro.serve.run_open_loop`` is not used: it times
from send and opens up to 1024 connections.

An operation is ``op(i, slot)``: it raises on any failure (wrong output,
non-200, exception, no completion in 10 s) and may return the
``perf_counter`` stamp at which it completed, when it knows a better one
than "now" (the EDT stamps a click's end before the waiting thread wakes).
"""

from __future__ import annotations

import itertools
import random
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

__all__ = ["Sample", "poisson_offsets", "run_open", "run_closed", "quiet",
           "latencies_ms", "lateness_ms", "closed_throughput"]

Op = Callable[[int, int], "float | None"]


@dataclass
class Sample:
    index: int
    due: float      # when the operation was due (closed phase: when issued)
    start: float    # when a thread actually issued it
    end: float      # when it completed
    ok: bool


def poisson_offsets(rng: random.Random, rate: float, duration: float) -> list[float]:
    """Arrival offsets in ``[0, duration)`` with exponential gaps of mean 1/rate."""
    offsets = []
    t = rng.expovariate(rate)
    while t < duration:
        offsets.append(t)
        t += rng.expovariate(rate)
    return offsets


def _run_pool(worker: Callable[[int], None], inflight: int) -> None:
    threads = [threading.Thread(target=worker, args=(slot,), name=f"load-{slot}")
               for slot in range(inflight)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def _attempt(op: Op, index: int, slot: int, due: float, start: float,
             clock: Callable[[], float], errors: list[str]) -> Sample:
    try:
        end = op(index, slot)
        ok = True
    except Exception:  # noqa: BLE001 - every failure of an operation is counted
        end, ok = None, False
        if len(errors) < 5:
            errors.append(traceback.format_exc(limit=4))
    return Sample(index, due, start, clock() if end is None else end, ok)


def run_open(op: Op, offsets: Sequence[float], inflight: int, *, first: int = 0,
             clock: Callable[[], float] = time.perf_counter,
             sleep: Callable[[float], None] = time.sleep,
             errors: list[str] | None = None) -> tuple[float, list[Sample]]:
    """Issue one operation per arrival offset, numbered from *first*;
    returns ``(t0, samples)``."""
    errors = [] if errors is None else errors
    samples: list[Sample] = []
    arrivals = itertools.count()  # next() is atomic under the GIL
    t0 = clock()

    def worker(slot: int) -> None:
        while True:
            i = next(arrivals)
            if i >= len(offsets):
                return
            due = t0 + offsets[i]
            delay = due - clock()
            if delay > 0:
                sleep(delay)
            samples.append(_attempt(op, first + i, slot, due, clock(), clock, errors))

    _run_pool(worker, inflight)
    return t0, samples


def run_closed(op: Op, seconds: float, inflight: int, *, first: int = 0,
               clock: Callable[[], float] = time.perf_counter,
               errors: list[str] | None = None) -> tuple[float, list[Sample]]:
    """Keep *inflight* operations in flight for *seconds*, numbered from *first*."""
    errors = [] if errors is None else errors
    samples: list[Sample] = []
    issued = itertools.count(first)
    t0 = clock()
    deadline = t0 + seconds

    def worker(slot: int) -> None:
        while True:
            start = clock()
            if start >= deadline:
                return
            samples.append(_attempt(op, next(issued), slot, start, start, clock, errors))

    _run_pool(worker, inflight)
    return t0, samples


def quiet(values: Iterable[float], better: str) -> float:
    """The second-best of the rounds' values.  A busy host only ever slows a
    round down, so the good rounds are the ones it left alone; the single
    best is passed over as a possible fluke."""
    ranked = sorted(values, reverse=(better == "higher"))
    return ranked[min(1, len(ranked) - 1)] if ranked else 0.0


def latencies_ms(samples: Iterable[Sample]) -> list[float]:
    """Due -> verified completion of the samples that passed their check."""
    return [(s.end - s.due) * 1e3 for s in samples if s.ok]


def lateness_ms(samples: Iterable[Sample]) -> list[float]:
    """Due -> issued: how late the generator (or a busy pool) sent each one."""
    return [(s.start - s.due) * 1e3 for s in samples if s.ok]


def closed_throughput(samples: Sequence[Sample], t0: float, duration: float,
                      weight: int = 1) -> float:
    """Verified completions per second inside ``[t0, t0 + duration)``; each
    sample counts *weight* operations, spread evenly over the time it ran,
    so one that straddles the end counts for the part inside."""
    done = 0.0
    for s in samples:
        if s.ok:
            inside = min(s.end, t0 + duration) - max(s.start, t0)
            done += weight * max(0.0, inside) / max(s.end - s.start, 1e-9)
    return done / duration
