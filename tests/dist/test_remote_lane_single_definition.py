"""Structure gate: the remote-lane machinery exists exactly once.

`ProcessTarget` and `ClusterTarget` were once two copies of one ~750-line
class.  They are now backends of `RemoteLaneTarget`; this test keeps the
copy from growing back — a backend that redefines a core method, or an
agent that re-implements the worker loops, fails here.
"""

from __future__ import annotations

import inspect

import pytest

from repro.cluster import ClusterAgent, ClusterTarget
from repro.cluster.target import _ClusterSlot
from repro.dist import ProcessTarget, RemoteLane, RemoteLaneTarget
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
