"""The lane server: what a ``forkserver`` process lane is forked from.

One per interpreter, started by its first lane.  It has imported the
worker before it forks, relays its children's exit codes as
``multiprocessing`` reports them, is replaced when it dies, is never a
child ``multiprocessing`` knows of, and goes when its parent goes.
"""

from __future__ import annotations

import multiprocessing
import os
import re
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.core import PjRuntime, RegionFailedError, WorkerCrashedError
from repro.core.region import RegionState, TargetRegion
from repro.dist.lane_server import CONTEXT

from . import bodies

pytestmark = pytest.mark.skipif(
    "forkserver" not in multiprocessing.get_all_start_methods(),
    reason="no fork server on this platform",
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "src")
PROC = "/proc"


def _server_of(rt: PjRuntime, target: str) -> int:
    """The lane server's pid: the parent of the worker running a region."""
    return rt.invoke_target_block(target, TargetRegion(os.getppid), timeout=60.0).result()


def _gone(pid: int) -> bool:
    """No such process, or a zombie nobody has reaped yet."""
    try:
        with open(f"{PROC}/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


def _run_script(tmp_path, source: str, env: dict | None = None) -> subprocess.CompletedProcess:
    script = tmp_path / "scenario.py"
    script.write_text(textwrap.dedent(source))
    if env is None:
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(script)], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=90)
    assert done.returncode == 0, done.stderr
    return done


@pytest.mark.parametrize("target,args,kill,expected", [
    (bodies.square, (3,), None, 0),
    (sys.exit, (7,), None, 7),
    (bodies.boom, (), None, 1),
    (bodies.sleepy, (60.0,), "terminate", -signal.SIGTERM),
    (bodies.sleepy, (60.0,), "kill", -signal.SIGKILL),
], ids=["return", "sys.exit(7)", "uncaught", "SIGTERM", "SIGKILL"])
def test_exit_codes_read_as_multiprocessing_reports_them(target, args, kill, expected):
    proc = CONTEXT.Process(target=target, args=args, daemon=True)
    proc.start()
    if kill is not None:
        assert proc.is_alive() and proc in multiprocessing.active_children()
        getattr(proc, kill)()
    proc.join(30.0)
    assert proc.exitcode == expected
    assert not proc.is_alive()


def test_lanes_are_children_and_the_server_is_not(proc_rt):
    server = _server_of(proc_rt, "pool")
    children = {child.pid for child in multiprocessing.active_children()}
    worker = proc_rt.invoke_target_block("pool", TargetRegion(bodies.worker_pid),
                                         timeout=60.0).result()
    assert worker in children
    assert server not in children and server != os.getpid()


@pytest.mark.skipif(not os.path.isdir(PROC), reason="no /proc")
def test_the_server_runs_one_thread(proc_rt):
    server = _server_of(proc_rt, "pool")
    assert os.listdir(f"{PROC}/{server}/task") == [str(server)]


@pytest.mark.skipif(not hasattr(os, "waitid"), reason="no waitid")
def test_a_killed_server_fails_nothing_silently_and_is_replaced(proc_rt):
    server = _server_of(proc_rt, "pool")
    handles = [proc_rt.invoke_target_block("pool", TargetRegion(bodies.sleepy, 0.2, value=i),
                                           "nowait") for i in range(4)]
    os.kill(server, signal.SIGKILL)
    os.waitid(os.P_PID, server, os.WEXITED | os.WNOWAIT)  # dead, left for the runtime to reap
    for i, handle in enumerate(handles):
        assert handle.wait(timeout=30.0), "a region hung after its lane server died"
        try:
            assert handle.result() == i
        except RegionFailedError as exc:
            assert isinstance(exc.__cause__, WorkerCrashedError)
    again = _server_of(proc_rt, "pool")
    assert again not in (server, 1) and not _gone(again)


@pytest.mark.skipif(not os.path.isdir(PROC), reason="no /proc")
def test_a_killed_server_leaves_no_worker_running(proc_rt):
    """A worker in a long region when its server dies can no longer be
    reaped or signalled through ``multiprocessing``: it is killed, so its
    body does not run on beside a region already failed."""
    target = proc_rt.get_target("pool")
    server = _server_of(proc_rt, "pool")
    handle = proc_rt.invoke_target_block("pool", TargetRegion(bodies.sleepy, 60.0), "nowait")
    deadline = time.monotonic() + 30.0
    while handle.state is not RegionState.RUNNING and time.monotonic() < deadline:
        time.sleep(0.01)
    workers = [pid for pid in target.worker_pids if pid is not None]
    os.kill(server, signal.SIGKILL)
    assert handle.wait(timeout=30.0), "a region hung after its lane server died"
    with pytest.raises(RegionFailedError) as failed:
        handle.result()
    assert isinstance(failed.value.__cause__, WorkerCrashedError)
    deadline = time.monotonic() + 5.0
    while not all(map(_gone, workers)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert all(map(_gone, workers)), [pid for pid in workers if not _gone(pid)]


def test_a_forked_child_opens_a_server_of_its_own(tmp_path):
    out = _run_script(tmp_path, """
        import os
        from repro.core import PjRuntime
        from repro.core.region import TargetRegion

        def server_of(name):
            rt = PjRuntime()
            rt.create_process_worker(name, 1)
            try:
                return rt.invoke_target_block(name, TargetRegion(os.getppid), timeout=60).result()
            finally:
                rt.shutdown(wait=True)

        if __name__ == "__main__":
            first = server_of("a")
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.write(w, str(server_of("b")).encode())
                os._exit(0)
            os.close(w)
            theirs = int(os.read(r, 64))
            assert os.waitpid(pid, 0)[1] == 0
            print(first, theirs, server_of("c"))
    """).stdout.split()
    first, theirs, again = map(int, out)
    assert theirs not in (first, 1)
    assert again == first  # the child's exit did not take the parent's server down


def test_the_server_goes_with_its_parent(tmp_path):
    out = _run_script(tmp_path, """
        import os
        from repro.core import PjRuntime
        from repro.core.region import TargetRegion

        if __name__ == "__main__":
            rt = PjRuntime()
            rt.create_process_worker("p", 2)
            print(rt.invoke_target_block("p", TargetRegion(os.getppid), timeout=60).result())
    """)
    server = int(out.stdout)
    deadline = time.monotonic() + 5.0
    while not _gone(server) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _gone(server)


def test_a_worker_does_not_import_the_worker_module_itself(tmp_path):
    """The only route to repro is ``sys.path.insert``, as in
    ``benchmarks/e2e/run.py``: the server must still preload.  Every
    interpreter that imports ``repro.dist.worker`` logs it once under
    ``PYTHONPROFILEIMPORTTIME``: this one and the lane server, not the
    workers."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPROFILEIMPORTTIME"] = "1"
    done = _run_script(tmp_path, f"""
        import sys
        sys.path.insert(0, {SRC!r})

        if __name__ == "__main__":
            import time
            from repro.core import PjRuntime
            from repro.core.region import TargetRegion

            rt = PjRuntime()
            target = rt.create_process_worker("p", 3)
            handles = [rt.invoke_target_block("p", TargetRegion(time.sleep, 0.3), "nowait")
                       for _ in range(6)]
            for handle in handles:
                handle.result()
            assert len(set(target.worker_pids)) == 3 and None not in target.worker_pids
            rt.shutdown(wait=True)
    """, env=env)
    imports = re.findall(r"\|\s+repro\.dist\.worker\s*$", done.stderr, re.M)
    assert len(imports) == 2, done.stderr[-2000:]
