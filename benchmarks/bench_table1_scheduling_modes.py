"""Table I — the scheduling clauses, measured on the real-thread runtime.

Table I defines the four scheduling-property clauses semantically; this
benchmark quantifies what each costs on the real-thread runtime:

* how long the encountering thread is held at the directive, and
* the full completion latency of a trivial target block,

for default / nowait / name_as(+wait) / await.  The fire-and-forget modes
must hold the encountering thread for microseconds; the waiting modes pay a
queue round-trip.
"""

from __future__ import annotations

import time

import pytest

from repro.core import PjRuntime


def _worker_runtime() -> PjRuntime:
    rt = PjRuntime()
    rt.create_worker("worker", 2)
    return rt


@pytest.fixture()
def rt():
    runtime = _worker_runtime()
    yield runtime
    runtime.shutdown(wait=False)


def _table1_default():
    """Default clause: encountering thread blocks until the block completes."""
    rt = _worker_runtime()
    op = lambda: rt.invoke_target_block("worker", lambda: None, "default")
    return op, lambda: rt.shutdown(wait=False)


def _table1_nowait():
    """Nowait clause: only the encountering thread's hold time; completion
    is asynchronous by design."""
    rt = _worker_runtime()
    op = lambda: rt.invoke_target_block("worker", lambda: None, "nowait")
    return op, lambda: rt.shutdown(wait=False)


def _table1_name_as_wait():
    """name_as tag registration plus an explicit wait_tag barrier."""
    rt = _worker_runtime()

    def cycle():
        rt.invoke_target_block("worker", lambda: None, "name_as", tag="t1bench")
        rt.wait_tag("t1bench")

    return cycle, lambda: rt.shutdown(wait=False)


def _table1_await():
    """Await from a non-member thread degrades to a blocking wait (documented
    in Algorithm 1's implementation); measures the full round trip."""
    rt = _worker_runtime()
    op = lambda: rt.invoke_target_block("worker", lambda: None, "await")
    return op, lambda: rt.shutdown(wait=False)


def test_table1_default_mode_cost(time_setup):
    time_setup(_table1_default)


def test_table1_nowait_mode_cost(time_setup):
    time_setup(_table1_nowait)


def test_table1_name_as_plus_wait_cost(time_setup):
    time_setup(_table1_name_as_wait)


def test_table1_await_mode_cost(time_setup):
    time_setup(_table1_await)


def test_table1_fire_and_forget_returns_fast(rt, report):
    """The nowait clause must hold the caller far shorter than the block's
    execution: the defining property of rows 2-3 of Table I."""
    block_time = 0.030
    t0 = time.perf_counter()
    handle = rt.invoke_target_block(
        "worker", lambda: time.sleep(block_time), "nowait"
    )
    held = time.perf_counter() - t0
    handle.wait(timeout=5)
    report(
        "table1_nowait_hold_time",
        [
            "Table I: encountering-thread hold time for a 30ms block",
            f"nowait hold: {held * 1e6:.0f} µs (block itself: {block_time * 1e3:.0f} ms)",
        ],
    )
    assert held < block_time / 10
