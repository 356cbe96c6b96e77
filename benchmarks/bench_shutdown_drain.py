"""Shutdown-path latency: drain (wait=True) vs cancel (wait=False).

The lost-work fix changed both shutdown modes: ``wait=True`` still drains the
backlog FIFO before stopping, while ``wait=False`` now atomically withdraws
the backlog and cancels every queued region so waiters unblock.  This suite
measures what each mode costs as a function of queue depth:

* **drain latency** — time for ``shutdown(wait=True)`` to run N trivial
  queued regions to completion and join the pool;
* **cancel latency** — time for ``shutdown(wait=False)`` to withdraw N queued
  regions and return (waiters observe ``RegionCancelledError``).

Cancel latency should stay roughly flat (one locked drain + N state flips);
drain latency grows linearly with the backlog.
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.core import RegionState, TargetRegion, WorkerTarget

DEPTHS = [10, 100, 1000]
REPEATS = 5


def _build_backlog(depth: int) -> tuple[WorkerTarget, list[TargetRegion]]:
    """A 1-thread target with *depth* trivial regions parked in its queue."""
    import threading

    target = WorkerTarget("bench-drain", 1)
    started = threading.Event()
    gate = threading.Event()
    target.post(TargetRegion(lambda: (started.set(), gate.wait())))
    started.wait(timeout=2)
    regions = [TargetRegion(lambda: None) for _ in range(depth)]
    for r in regions:
        target.post(r)
    gate.set()
    return target, regions


def _timed_shutdown(depth: int, wait: bool) -> float:
    target, _regions = _build_backlog(depth)
    t0 = time.perf_counter()
    target.shutdown(wait=wait)
    return time.perf_counter() - t0


@pytest.mark.parametrize("depth", DEPTHS)
def test_drain_completes_backlog(depth):
    target, regions = _build_backlog(depth)
    target.shutdown(wait=True)
    assert all(r.state is RegionState.COMPLETED for r in regions)


@pytest.mark.parametrize("depth", DEPTHS)
def test_cancel_withdraws_backlog(depth):
    target, regions = _build_backlog(depth)
    target.shutdown(wait=False)
    # The gate region may still be running; the queued backlog must be dead.
    assert all(r.done for r in regions)
    assert target.stats["cancelled_on_shutdown"] >= depth - 1


def test_report_drain_vs_cancel_latency(report):
    rows = [f"{'depth':>6} | {'drain (wait=True)':>18} | {'cancel (wait=False)':>19}"]
    rows.append("-" * len(rows[0]))
    for depth in DEPTHS:
        drain = statistics.median(
            _timed_shutdown(depth, wait=True) for _ in range(REPEATS)
        )
        cancel = statistics.median(
            _timed_shutdown(depth, wait=False) for _ in range(REPEATS)
        )
        rows.append(f"{depth:>6} | {drain * 1e3:>15.2f} ms | {cancel * 1e3:>16.2f} ms")
    report("shutdown_drain_latency", rows)
