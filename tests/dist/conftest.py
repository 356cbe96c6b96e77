"""Fixtures for the dist suite: process runtimes + child-process and
shared-memory leak guards."""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from repro.core import PjRuntime
from repro.dist import ProcessTarget
from repro.dist.arena import SEGMENT_PREFIX

SHM_DIR = "/dev/shm"


def own_segments(pid: int | None = None) -> set[str]:
    """Names of the arena segments process *pid* (default: this one)
    created that still exist; empty where there is no ``/dev/shm``."""
    if not os.path.isdir(SHM_DIR):
        return set()
    prefix = f"{SEGMENT_PREFIX}{os.getpid() if pid is None else pid}-"
    return {name for name in os.listdir(SHM_DIR) if name.startswith(prefix)}


@pytest.fixture(autouse=True)
def no_child_process_leaks():
    """Every test must account for its worker processes.

    Terminated children take a moment to be reaped (``terminate`` is
    asynchronous and slot reaping uses bounded joins), so the guard polls
    before declaring a leak.
    """
    yield
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        leftovers = multiprocessing.active_children()
        if not leftovers:
            return
        time.sleep(0.05)
    leftovers = multiprocessing.active_children()
    for proc in leftovers:  # clean up so one leak doesn't cascade
        proc.terminate()
    assert not leftovers, f"leaked worker processes: {leftovers}"


@pytest.fixture(autouse=True)
def no_shared_memory_leaks():
    """Every arena segment a test's lanes created is unlinked by the time
    its targets are down.  Reaping is asynchronous after
    ``shutdown(wait=False)`` (the shipper notices within a poll tick, then
    joins the terminated worker), so the guard polls like the one above."""
    if not os.path.isdir(SHM_DIR):
        yield
        return
    before = own_segments()
    yield
    deadline = time.monotonic() + 10.0
    while own_segments() - before and time.monotonic() < deadline:
        time.sleep(0.05)
    leaked = own_segments() - before
    for name in leaked:  # clean up so one leak doesn't cascade
        os.unlink(os.path.join(SHM_DIR, name))
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"


@pytest.fixture()
def proc_rt():
    """Runtime with a 2-worker process target named 'pool'."""
    runtime = PjRuntime()
    runtime.create_process_worker("pool", 2, heartbeat_interval=0.25)
    yield runtime
    runtime.shutdown(wait=False)


@pytest.fixture()
def solo_rt(monkeypatch):
    """Runtime with a 1-worker process target named 'solo' and a short
    cancel grace, for stuck-worker and crash-ordering tests."""
    monkeypatch.setattr(ProcessTarget, "cancel_grace", 1.0)
    runtime = PjRuntime()
    runtime.create_process_worker("solo", 1, heartbeat_interval=0.25)
    yield runtime
    runtime.shutdown(wait=False)
