"""Fixtures for the cluster suite: spawned agents + child-leak guards.

Cluster worker agents are forked from the lane server, invisible to the
``multiprocessing.active_children()`` guard the dist suite uses — so this
conftest wraps :func:`repro.cluster.spawn_agent_process` to track every
handle a test creates and fails the test if any agent process is still
alive at teardown (then reaps it so one leak cannot cascade).
"""

from __future__ import annotations

import multiprocessing
import time

import pytest

import repro.cluster as cluster_pkg
import repro.cluster.agent as agent_mod
from repro.core import PjRuntime


@pytest.fixture(autouse=True)
def no_agent_process_leaks(monkeypatch):
    """Track every spawned agent; a test that leaves one running fails."""
    tracked = []
    real = agent_mod.spawn_agent_process

    def tracking_spawn(*args, **kwargs):
        handle = real(*args, **kwargs)
        tracked.append(handle)
        return handle

    # The package first: its lazy re-export would read the patched module
    # and keep the wrapper as the value to restore.
    monkeypatch.setattr(cluster_pkg, "spawn_agent_process", tracking_spawn)
    monkeypatch.setattr(agent_mod, "spawn_agent_process", tracking_spawn)
    yield
    leaked = [h.pid for h in tracked if h.alive()]
    for h in tracked:  # reap regardless, so one leak doesn't cascade
        h.close()
    assert not leaked, f"leaked cluster agent processes: {leaked}"
    # Cluster tests must not leak multiprocessing children either.
    deadline = time.monotonic() + 10.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    leftovers = multiprocessing.active_children()
    for proc in leftovers:
        proc.terminate()
    assert not leftovers, f"leaked worker processes: {leftovers}"


@pytest.fixture()
def agent():
    """One spawned cluster-worker agent."""
    handle = cluster_pkg.spawn_agent_process()
    yield handle
    handle.close()


@pytest.fixture()
def two_agents():
    """Two spawned agents — the canonical 2-endpoint shard set."""
    a = cluster_pkg.spawn_agent_process()
    b = cluster_pkg.spawn_agent_process()
    yield a, b
    a.close()
    b.close()


@pytest.fixture()
def cluster_rt(two_agents):
    """Runtime with a 2-endpoint cluster target named 'cw'."""
    a, b = two_agents
    runtime = PjRuntime()
    runtime.create_cluster(
        "cw", [a.endpoint, b.endpoint], heartbeat_interval=0.25
    )
    yield runtime
    runtime.shutdown(wait=False)
