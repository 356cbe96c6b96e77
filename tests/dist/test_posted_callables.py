"""A callable posted to a remote target is a region from admission on.

``VirtualTarget.post`` wraps a plain callable into a ``TargetRegion`` once,
so its ENQUEUE, the shipper's DEQUEUE and the worker's EXEC span share one
region id and the trace verifies; a failure, which has no waiter, is
logged on the parent side.  Also here: a lane whose worker died while idle
is reopened before it is shipped the next region.
"""

from __future__ import annotations

import logging
import os
import signal
import time

import pytest

from repro import obs
from repro.check import verify_events
from repro.cluster import ClusterAgent
from repro.core import PjRuntime
from repro.dist import ProcessTarget
from repro.obs import EventKind

from . import bodies


@pytest.fixture()
def tracing():
    obs.disable()
    obs.session().clear()
    yield obs.enable()
    obs.disable()
    obs.session().clear()


@pytest.fixture(params=["process", "cluster"])
def remote_rt(request):
    """A runtime with a 1-lane remote target named 'r' of the requested
    kind (the cluster agent listens on loopback, in this process)."""
    rt = PjRuntime()
    agent = None
    if request.param == "process":
        rt.create_process_worker("r", 1)
    else:
        agent = ClusterAgent().start()
        rt.create_cluster("r", [f"{agent.host}:{agent.port}"], shards=1)
    yield rt
    rt.shutdown(wait=False)
    if agent is not None:
        agent.stop()


def test_a_traced_posted_callable_verifies(tracing, remote_rt):
    remote_rt.get_target("r").post(os.getpid)
    remote_rt.shutdown(wait=True)  # drains the backlog, joins the shippers
    events = tracing.events()
    assert verify_events(events) == []
    chain = [e for e in events if e.name == "getpid"]
    assert {e.kind for e in chain} >= {
        EventKind.ENQUEUE, EventKind.DEQUEUE, EventKind.EXEC_BEGIN, EventKind.EXEC_END,
    }
    assert len({e.region for e in chain}) == 1


def test_a_raising_posted_callable_is_logged_on_the_parent(remote_rt, caplog):
    with caplog.at_level(logging.ERROR, logger="repro.core.targets"):
        remote_rt.get_target("r").post(bodies.boom)
        remote_rt.shutdown(wait=True)
    (record,) = [r for r in caplog.records if "unhandled exception" in r.getMessage()]
    assert "boom" in record.getMessage() and "posted to r" in record.getMessage()


def test_a_worker_that_died_idle_is_reopened_before_the_next_region(monkeypatch):
    # A long heartbeat: the idle health check must not be what finds the
    # corpse, the shipper's claim must.  Five kills need five reopens.
    monkeypatch.setattr(ProcessTarget, "max_restarts", 5)
    rt = PjRuntime()
    try:
        target = rt.create_process_worker("p", 1, heartbeat_interval=60.0)
        slot = target._slots[0]
        pid = rt.invoke_target_block("p", os.getpid).result()
        for _ in range(5):
            os.kill(pid, signal.SIGKILL)
            time.sleep(0.2)
            new_pid = rt.invoke_target_block("p", os.getpid, timeout=30.0).result()
            assert new_pid != pid and new_pid == slot.pid
            pid = new_pid
        assert target.stats["worker_crashes"] == 5
    finally:
        rt.shutdown(wait=False)
