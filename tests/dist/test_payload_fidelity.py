"""Payload fidelity across the attachment threshold, on every lane kind.

A region's serialized payload travels beside its message from
`wire.ATTACH_MIN_BYTES` up — through a shared-memory arena on a process
lane, by scatter/gather on a TCP lane — and inside it below.  Whatever the
route, what comes back must be the value that went in, in a real object of
the same type (never a view of a transport buffer), for every size around
the switch and for a short payload that follows a long one through the
same arena.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time
import zlib

import numpy as np
import pytest

from repro.cluster import ClusterAgent
from repro.core import PjRuntime
from repro.core.errors import RegionFailedError, WorkerCrashedError
from repro.core.region import RegionState, TargetRegion
from repro.dist import wire

from . import bodies
from .conftest import SHM_DIR, own_segments
from .loopback import LoopbackTarget

K = wire.ATTACH_MIN_BYTES
# Long before short, and both sides of the switch: a stale arena tail or a
# decoder that mistakes one path's frame for the other's shows up here.
SIZES = [8 << 20, 0, 1 << 20, 1, K + 1, K - 1, K]
LANES = ["process", "cluster", "loopback"]


@pytest.fixture(params=LANES)
def lane_rt(request):
    """A runtime with a 2-lane target named 'lane' of the requested kind."""
    rt = PjRuntime()
    agent = None
    if request.param == "process":
        rt.create_process_worker("lane", 2, heartbeat_interval=0.25)
    elif request.param == "cluster":
        agent = ClusterAgent().start()  # a loopback agent, in this process
        rt.create_cluster("lane", [f"{agent.host}:{agent.port}"], shards=2)
    else:
        rt.register_target(LoopbackTarget("lane", 2))
    yield rt
    rt.shutdown(wait=False)
    if agent is not None:
        agent.stop()


def run(rt, body, *args, **kwargs):
    return rt.invoke_target_block(
        "lane", TargetRegion(body, *args, **kwargs), timeout=60.0
    ).result()


def pattern(size: int) -> bytes:
    """*size* bytes that differ for every size and from their own shifts."""
    return (os.urandom(251) * (size // 251 + 1))[:size]


def _bytes(size):
    data = pattern(size)
    return data, lambda got: type(got) is bytes and got == data


def _bytearray(size):
    data = bytearray(pattern(size))
    return data, lambda got: type(got) is bytearray and got == data


def _ndarray(size):
    data = np.frombuffer(pattern(size), dtype=np.uint8).copy()
    return data, lambda got: (
        type(got) is np.ndarray and got.dtype == data.dtype
        and got.shape == data.shape and np.array_equal(got, data)
        and got.flags.writeable and not np.shares_memory(got, data)
    )


def _strided(size):
    data = np.frombuffer(pattern(2 * size), dtype=np.uint8)[::2]
    assert size < 2 or not data.flags.c_contiguous
    return data, lambda got: (
        type(got) is np.ndarray and got.shape == data.shape
        and np.array_equal(got, data)
    )


def _str(size):
    data = ("é" * (size // 2)) + "x" * (size % 2)  # *size* bytes of UTF-8
    return data, lambda got: type(got) is str and got == data


def _dict_of_two(size):
    data = {"a": pattern(size), "b": bytearray(pattern(size)), "n": size}
    return data, lambda got: (
        got == data and type(got["a"]) is bytes and type(got["b"]) is bytearray
    )


PAYLOADS = {
    "bytes": _bytes, "bytearray": _bytearray, "ndarray": _ndarray,
    "strided-ndarray": _strided, "str": _str, "dict-of-two": _dict_of_two,
}


@pytest.mark.parametrize("kind", list(PAYLOADS))
def test_echo_is_equal_in_value_and_type_at_every_size(lane_rt, kind):
    for size in SIZES:
        data, same = PAYLOADS[kind](size)
        assert same(run(lane_rt, bodies.echo, data)), f"{kind} of {size} bytes"


def test_worker_sees_the_real_type_not_a_view(lane_rt):
    for size in SIZES:
        data = pattern(size)
        assert run(lane_rt, bodies.describe, data) == ("bytes", size, zlib.crc32(data))
        assert run(lane_rt, bodies.describe, bytearray(data))[0] == "bytearray"


@pytest.mark.skipif(not wire.HAVE_CLOUDPICKLE, reason="closures need cloudpickle")
def test_closure_capturing_a_large_buffer(lane_rt):
    for size in SIZES:
        big = pattern(size)
        got = run(lane_rt, lambda: big)
        assert type(got) is bytes and got == big


def test_large_result_from_a_small_argument(lane_rt):
    for size in SIZES:
        got = run(lane_rt, bytes, size)  # bytes(n): n zero bytes, made remotely
        assert type(got) is bytes and len(got) == size and not any(got)


def test_mutating_a_bytearray_after_the_result_changes_nothing(lane_rt):
    for size in (K - 1, K, 1 << 20):
        original = pattern(size)
        arg = bytearray(original)
        got = run(lane_rt, bodies.echo, arg)
        arg[0] ^= 0xFF
        arg[-1] ^= 0xFF
        assert got == original, "the result aliases the argument"
        got[0] ^= 0xFF
        assert arg[1:-1] == original[1:-1] and arg[0] == original[0] ^ 0xFF, (
            "the argument aliases the result"
        )


def test_both_lanes_carry_large_payloads_concurrently(lane_rt):
    payloads = [pattern((1 << 20) + i) for i in range(8)]
    regions = [
        lane_rt.invoke_target_block(
            "lane", TargetRegion(bodies.sleepy, 0.05, value=p), "nowait"
        )
        for p in payloads
    ]
    assert [r.result(timeout=60.0) for r in regions] == payloads
    target = lane_rt.get_target("lane")
    assert target.restart_count == 0 and target.stats["worker_crashes"] == 0


def _wait_until(predicate, timeout=15.0):
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.02)
    return predicate()


def test_kill_9_mid_region_then_the_respawned_lane_echoes_correctly():
    rt = PjRuntime()
    try:
        target = rt.create_process_worker("solo", 1, heartbeat_interval=0.25)
        big = pattern(1 << 20)
        assert rt.invoke_target_block("solo", TargetRegion(bodies.echo, big)).result() == big
        assert len(own_segments()) == 2 or not os.path.isdir(SHM_DIR)
        doomed = rt.invoke_target_block(
            "solo", TargetRegion(bodies.sleepy, 60.0, value=big), "nowait"
        )
        assert _wait_until(lambda: doomed.state is RegionState.RUNNING)
        time.sleep(0.2)  # past the arena read, into the body
        os.kill(target.worker_pids[0], signal.SIGKILL)
        with pytest.raises(RegionFailedError) as exc_info:
            doomed.result(timeout=30.0)
        assert isinstance(exc_info.value.__cause__, WorkerCrashedError)
        assert not own_segments(), "the dead worker's lane kept its arenas"
        again = pattern((1 << 20) + 7)
        assert rt.invoke_target_block(
            "solo", TargetRegion(bodies.echo, again), timeout=60.0
        ).result() == again
        assert target.restart_count == 1
    finally:
        rt.shutdown(wait=False)


# The resource tracker is another process and reports leaks when *its*
# parent exits, so "no warning" can only be observed around a whole
# interpreter: each scenario runs in a child, and the child's stderr
# (which the tracker inherits) is read to the end.
_SCENARIO = """
    import sys, time
    from repro.core import PjRuntime
    from repro.core.region import TargetRegion
    from repro.dist import ProcessTarget, process_target
    from tests.dist import bodies

    def main():
        ProcessTarget.max_restarts = 0
        process_target.DEFAULT_START_METHOD = {method!r}
        rt = PjRuntime()
        target = rt.create_process_worker("p", 2, heartbeat_interval=0.25)
        big = bytes(range(256)) * 4096
        for _ in range(4):  # both lanes, both directions
            assert rt.invoke_target_block("p", TargetRegion(bodies.echo, big)).result() == big
        {steps}
        print("done", flush=True)

    if __name__ == "__main__":
        main()
"""
_ENDINGS = {
    "shutdown-wait": "rt.shutdown(wait=True)",
    "shutdown-nowait-in-flight": """
        rt.invoke_target_block("p", TargetRegion(bodies.sleepy, 60.0, value=big), "nowait")
        time.sleep(0.5)
        rt.shutdown(wait=False)
    """,
    "all-lanes-disabled": """
        for _ in range(2):
            try:
                rt.invoke_target_block("p", TargetRegion(bodies.hard_exit), timeout=30.0)
            except Exception:
                pass
        deadline = time.monotonic() + 15.0
        while target.alive and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not target.alive
    """,
}


@pytest.mark.parametrize(
    "ending,method",
    [(ending, method) for method in ("spawn", "forkserver") for ending in _ENDINGS],
)
def test_no_segment_and_no_tracker_warning_survive_the_runtime(ending, method, tmp_path):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method here")
    steps = textwrap.indent(textwrap.dedent(_ENDINGS[ending]), " " * 4).strip()
    _run_clean_child(tmp_path, textwrap.dedent(_SCENARIO).format(steps=steps, method=method))


# Daemon threads creating and releasing arenas as fast as they can when the
# interpreter exits: one is frozen mid-step almost every run, and must
# leave neither a segment nor a tracker entry behind.
_CHURN = """
    import threading, time
    from repro.dist.arena import Arena

    def churn():
        while True:
            Arena.create(1 << 16).release()

    for _ in range(2):
        threading.Thread(target=churn, daemon=True).start()
    time.sleep(0.3)
    print("done", flush=True)
"""


def test_daemons_cut_off_mid_arena_step_leave_nothing_behind(tmp_path):
    _run_clean_child(tmp_path, _CHURN)


def _run_clean_child(tmp_path, source):
    """Run *source* in a child interpreter; it must print ``done``, and
    neither a tracker warning nor a segment of its own may outlive it."""
    script = tmp_path / "scenario.py"
    script.write_text(textwrap.dedent(source))
    repo = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(repo, "src"), repo, env.get("PYTHONPATH", "")]
    )
    proc = subprocess.Popen(
        [sys.executable, str(script)], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    out, err = proc.communicate(timeout=90.0)
    assert proc.returncode == 0 and "done" in out, err
    assert "resource_tracker" not in err and "leaked" not in err, err
    assert "Traceback" not in err, err
    assert not own_segments(proc.pid), f"segments outlived pid {proc.pid}"
