"""Structure gate: the remote-lane machinery exists exactly once.

`ProcessTarget` and `ClusterTarget` were once two copies of one ~750-line
class.  They are now backends of `RemoteLaneTarget`; this test keeps the
copy from growing back — a backend that redefines a core method, or an
agent that re-implements the worker loops, fails here.  It also keeps a
lane to one owner: its shipper thread, with no second thread (the removed
supervisor), no lane lock and no side channel beside the one reply per
task.
"""

from __future__ import annotations

import inspect
import pathlib
import re
import threading

import pytest

import repro
from repro.cluster import ClusterAgent, ClusterTarget, transport
from repro.cluster.target import _ClusterSlot
from repro.core import PjRuntime
from repro.core.region import TargetRegion
from repro.dist import ProcessTarget, RemoteLane, RemoteLaneTarget, arena, wire
from repro.dist import process_target, worker
from repro.dist.process_target import _WorkerSlot

CORE_METHODS = (
    "shutdown", "_ensure_worker", "_shipper_loop", "_execute_remote",
    "_await_result", "_deliver", "_handle_worker_failure", "_retire_slot",
    "_log_plain_failure",
)
CHANNEL_GENERIC = ("send_ping", "send_cancel", "drain_control")


@pytest.mark.parametrize("backend", [ProcessTarget, ClusterTarget])
def test_backends_inherit_the_core(backend):
    assert issubclass(backend, RemoteLaneTarget)
    redefined = [m for m in CORE_METHODS if m in backend.__dict__]
    assert not redefined, f"{backend.__name__} redefines {redefined}"
    for method in CORE_METHODS:
        assert method in RemoteLaneTarget.__dict__, method


@pytest.mark.parametrize("lane", [_WorkerSlot, _ClusterSlot])
def test_lanes_inherit_the_channel_generic_half(lane):
    assert issubclass(lane, RemoteLane)
    redefined = [m for m in CHANNEL_GENERIC if m in lane.__dict__]
    assert not redefined, f"{lane.__name__} redefines {redefined}"


def test_agent_serves_the_shared_worker_loops():
    # The loops that dispatch on SyncMsg / PingMsg live in repro.dist.worker;
    # an agent with its own isinstance chain is the old "socket twin".
    source = inspect.getsource(ClusterAgent)
    for msg in ("SyncMsg", "PingMsg"):
        assert msg not in source, f"ClusterAgent dispatches on {msg} itself"
    assert "task_loop(" in source and "control_loop(" in source


def _modules_spelling(pattern: str) -> set[str]:
    """Files under ``src/repro`` whose source matches *pattern*."""
    root = pathlib.Path(repro.__file__).parent
    return {
        str(path.relative_to(root))
        for path in root.rglob("*.py")
        if re.search(pattern, path.read_text())
    }


def test_the_data_plane_is_written_once_and_imported_by_both_ends():
    # One arena implementation, run by the parent end and the worker end of
    # a pipe lane alike; one parts serializer, used by both directions.
    assert _modules_spelling(r"SharedMemory\(|posix_fallocate|shm_open") == {"dist/arena.py"}
    assert process_target.ArenaChannel is worker.ArenaChannel is arena.ArenaChannel
    assert _modules_spelling(r"class Parts\b|PickleBuffer|Pickler\(") == {"dist/wire.py"}
    assert _modules_spelling(r"dumps_parts\(") == {
        "dist/wire.py", "dist/remote_target.py", "dist/worker.py",
    }
    assert wire.dumps_parts.__module__ == "repro.dist.wire"


def test_the_tcp_send_path_neither_nests_the_pickle_nor_concatenates_the_frame():
    source = inspect.getsource(transport.TcpTransport) + inspect.getsource(transport._send_all)
    assert "pickle.dumps(" not in source and "sendall(" not in source
    assert not re.search(r"\.pack\([^)]*\)\s*\+", inspect.getsource(transport))
    assert "sendmsg(" in source and "recv_into(" in source


def test_a_lane_has_one_parent_side_thread_its_shipper():
    before = set(threading.enumerate())
    rt = PjRuntime()
    try:
        target = rt.create_process_worker("gate", 2)
        assert rt.invoke_target_block("gate", TargetRegion(abs, -3)).result() == 3
        started = {t.name for t in set(threading.enumerate()) - before}
    finally:
        rt.shutdown(wait=True)
    assert started == {f"repro-process-gate-ship-{i}" for i in range(2)}
    assert [slot.thread.name for slot in target._slots] == sorted(started)


def test_the_second_lane_owner_and_the_tag_side_channel_stay_gone():
    gone = (
        "Supervisor", "ctrl_lock", "_respawn_slot", "last_pong", "TagDoneMsg",
        "ClusterTaskMsg", "tag_progress", "on_tag_done", "tag_notifications",
    )
    assert _modules_spelling(r"\b(" + "|".join(gone) + r")\b") == set()


def test_a_lane_holds_no_lock():
    lock_types = (type(threading.Lock()), type(threading.RLock()))
    lane = RemoteLane(0, "t")
    assert not [name for name in RemoteLane.__slots__ if re.search(r"(^|_)lock$", name)]
    assert not [
        name for name in RemoteLane.__slots__
        if isinstance(getattr(lane, name, None), lock_types)
    ]
