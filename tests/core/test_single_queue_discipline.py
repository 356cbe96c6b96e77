"""Structure gate: the queue discipline exists exactly once.

Admission (rejection policies, ``force_queue_full``), consumption (which
consumer may take which item, what the shutdown marker means to a loop) and
backlog cancellation live in ``_TargetQueue`` + ``VirtualTarget``.  The asyncio
adapter once carried a private copy of admission over a shadow in-flight
set, and five dequeue loops each triaged the sentinels themselves, two of
them with a pop/re-post/``sleep(0.001)`` spin.  This test keeps the copies
from growing back.
"""

from __future__ import annotations

import ast
import inspect
import pathlib
import re

import pytest

from repro.adapters import AsyncioEdtTarget
from repro.core.targets import EdtTarget, VirtualTarget, WorkerTarget, _TargetQueue
from repro.dist import RemoteLaneTarget

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
TARGETS = "core/targets.py"


def _hits(pattern: str) -> dict[str, int]:
    """Occurrences of *pattern* per file under ``src/repro`` (non-zero only)."""
    rx = re.compile(pattern)
    counts = {}
    for path in sorted(SRC.rglob("*.py")):
        n = len(rx.findall(path.read_text()))
        if n:
            counts[str(path.relative_to(SRC))] = n
    return counts


def test_asyncio_adapter_has_no_private_admission():
    gone = ("_admit", "_track", "_run_tracked", "_depth", "_warn_caller_runs_on_loop")
    assert not [m for m in gone if m in AsyncioEdtTarget.__dict__]
    source = inspect.getsource(AsyncioEdtTarget)
    for shadow in ("_inflight", "high_water", "force_queue_full", "QueueFullError"):
        assert shadow not in source, shadow


@pytest.mark.parametrize("decision", [
    r'_bump\([^)]*"rejected"', r'_bump\("caller_runs"', r"\.force_queue_full\(",
    r"emit\(\s*EventKind\.REJECT\b",
])
def test_rejection_policy_is_decided_once(decision):
    assert _hits(decision) == {TARGETS: 1}


def test_queue_full_error_is_raised_by_one_target_path():
    assert _hits(r"(?<!class )QueueFullError\(") == {TARGETS: 1}


def test_eventloop_keeps_no_pool_of_its_own():
    # ExecutorService and the SwingWorker pool are WorkerTargets; the
    # Swing Timer's threading.Timer is a clock, not a pool.
    pool_parts = re.compile(r"\bThread\(|\bCondition\(|\bdeque\b")
    hits = [
        str(path.relative_to(SRC)) for path in sorted((SRC / "eventloop").glob("*.py"))
        if pool_parts.search(path.read_text())
    ]
    assert hits == []


def test_sentinels_are_triaged_by_the_owner_loop_only():
    # One marker: the queue skips or returns it, one owner loop acts on it.
    assert set(_hits(r"\bis (not )?_SHUTDOWN\b")) == {TARGETS}
    readers = [
        name for name, fn in inspect.getmembers(VirtualTarget, inspect.isfunction)
        if "_SHUTDOWN" in inspect.getsource(fn)
    ]
    assert readers == ["_serve_queue"]
    # Nobody outside targets.py names it: shutdown paths ask the queue.
    assert set(_hits(r"\b_SHUTDOWN\b")) == {TARGETS}


def test_shutdown_marker_is_the_only_uncounted_queue_item():
    tree = ast.parse((SRC / TARGETS).read_text())
    markers = [
        node.target.id if isinstance(node, ast.AnnAssign) else node.targets[0].id
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        and isinstance(node.value, ast.Call)
        and getattr(node.value.func, "id", None) == "object"
    ]
    assert markers == ["_SHUTDOWN"]
    # Two ways in: work (counted) and the marker.  A wakeup queues nothing.
    appends = {
        name: inspect.getsource(fn).count("_items.append(")
        for name, fn in inspect.getmembers(_TargetQueue, inspect.isfunction)
    }
    assert {n: c for n, c in appends.items() if c} == {"put": 1, "put_shutdown": 1}
    assert "put" not in inspect.getsource(VirtualTarget.wakeup)


@pytest.mark.parametrize("gone", [
    r"_Sentinel", r"_WAKEUP", r"_RETIRE", r"loop_only", r"put_internal",
    r"PoolAutoscaler", r"POOL_SCALE", r"(?i)autoscal",
    r"REPRO_(STEAL|BATCH_MAX|AUTOSCALE)", r"policy_from_env", r"PolicyConfig",
])
def test_removed_machinery_stays_removed(gone):
    assert _hits(gone) == {}


@pytest.mark.parametrize("loop", [
    WorkerTarget._worker_loop, EdtTarget.run_forever, RemoteLaneTarget._shipper_loop,
])
def test_owner_loops_are_the_shared_loop(loop):
    source = inspect.getsource(loop)
    assert "_serve_queue(" in source
    for name in ("_SHUTDOWN", "_queue.get"):
        assert name not in source, name


@pytest.mark.parametrize("guest", [VirtualTarget.process_one, VirtualTarget.drain])
def test_guests_neither_triage_nor_spin(guest):
    source = inspect.getsource(guest)
    for name in ("_SHUTDOWN", "put_shutdown", "sleep"):
        assert name not in source, name


def test_one_dequeue_and_one_backlog_cancel():
    # Every consumer method funnels through the one locked pop...
    for consumer in (_TargetQueue.get, _TargetQueue.get_batch, _TargetQueue.steal_work):
        source = inspect.getsource(consumer)
        assert "self._pop(" in source
        assert "_work -=" not in source and "popleft" not in source
    # ...and _cancel_pending is the only loop over a drained backlog.
    assert _hits(r"\.drain_work\(") == {TARGETS: 1}
    assert "drain_work()" in inspect.getsource(VirtualTarget._cancel_pending)
