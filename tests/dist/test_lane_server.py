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
from repro.dist.wire import HAVE_CLOUDPICKLE

from . import bodies

pytestmark = pytest.mark.skipif(
    "forkserver" not in multiprocessing.get_all_start_methods(),
    reason="no fork server on this platform",
)

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")
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


def _wait_gone(*pids: int, timeout: float = 5.0) -> list[int]:
    """Wait for every pid to be :func:`_gone`; the ones still running."""
    deadline = time.monotonic() + timeout
    while any(not _gone(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.01)
    return [pid for pid in pids if not _gone(pid)]


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


@pytest.mark.skipif(not os.path.isdir(PROC), reason="no /proc")
def test_a_killed_server_fails_nothing_silently_and_is_replaced(proc_rt):
    server = _server_of(proc_rt, "pool")
    handles = [proc_rt.invoke_target_block("pool", TargetRegion(bodies.sleepy, 0.2, value=i),
                                           "nowait") for i in range(4)]
    os.kill(server, signal.SIGKILL)
    # Dead: a zombie, or already reaped by the runtime reopening a lane.
    assert not _wait_gone(server)
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
    assert not _wait_gone(*workers)


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
    assert not _wait_gone(server)


@pytest.fixture(scope="module")
def three_lanes(tmp_path_factory) -> tuple[subprocess.CompletedProcess, list[str]]:
    """A script whose only route to repro is ``sys.path.insert``, as in
    ``benchmarks/e2e/run.py``, and whose unguarded module-level code leaves
    a mark, opens a 3-lane target and runs a region on each lane, under
    ``PYTHONPROFILEIMPORTTIME``.  Its body is importable by reference, so
    the script runs with plain pickle too.  Its output, and the pids that
    left a mark."""
    tmp_path = tmp_path_factory.mktemp("three_lanes")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPROFILEIMPORTTIME"] = "1"
    done = _run_script(tmp_path, f"""
        import os
        import sys
        sys.path[:0] = [{SRC!r}, {ROOT!r}]

        with open("marks", "a") as marks:
            marks.write(f"{{os.getpid()}}\\n")

        if __name__ == "__main__":
            from repro.core import PjRuntime
            from repro.core.region import TargetRegion
            from tests.dist.bodies import meet

            rt = PjRuntime()
            target = rt.create_process_worker("p", 3)
            handles = [rt.invoke_target_block("p", TargetRegion(meet, 3), "nowait")
                       for _ in range(3)]
            ran_on = sorted(handle.result() for handle in handles)
            assert ran_on == sorted(target.worker_pids) and len(set(ran_on)) == 3, ran_on
            rt.shutdown(wait=True)
            print(os.getpid())
    """, env=env)
    return done, (tmp_path / "marks").read_text().split()


def _imports(done: subprocess.CompletedProcess, module: str) -> list[str]:
    """The interpreters that logged importing *module*, one line each."""
    return re.findall(rf"\|\s+{re.escape(module)}\s*$", done.stderr, re.M)


def test_a_worker_does_not_import_the_worker_module_itself(three_lanes):
    """The server must preload even where ``sys.path.insert`` is the only
    route to repro.  Every interpreter that imports ``repro.dist.worker``
    logs it once under ``PYTHONPROFILEIMPORTTIME``: this one and the lane
    server, not the workers."""
    done, _ = three_lanes
    imports = _imports(done, "repro.dist.worker")
    assert len(imports) == 2, done.stderr[-2000:]


def test_a_worker_does_not_import_the_lane_server(three_lanes):
    """A lane's ``Process`` pickle names ``repro.dist.lane_server``: the
    server has imported it, so a worker unpickles it without an import."""
    done, _ = three_lanes
    imports = _imports(done, "repro.dist.lane_server")
    assert len(imports) == 2, done.stderr[-2000:]


@pytest.mark.skipif(not HAVE_CLOUDPICKLE, reason="cloudpickle absent")
def test_a_worker_does_not_run_the_parents_main_module(three_lanes):
    done, marks = three_lanes
    assert marks == [done.stdout.strip()]


def test_without_cloudpickle_a_worker_runs_the_parents_main_module(tmp_path):
    """Plain pickle names a ``__main__`` function by reference: with
    cloudpickle blocked in the parent, each worker runs the script again
    and the function resolves there."""
    out = _run_script(tmp_path, """
        import os
        import sys

        with open("marks", "a") as marks:
            marks.write(f"{os.getpid()}\\n")

        def triple(x):
            return 3 * x

        if __name__ == "__main__":
            sys.modules["cloudpickle"] = None  # import cloudpickle fails
            from repro.core import PjRuntime
            from repro.core.region import TargetRegion
            from repro.dist import wire

            rt = PjRuntime()
            rt.create_process_worker("p", 2)
            print(wire.HAVE_CLOUDPICKLE)
            print(rt.invoke_target_block("p", TargetRegion(triple, 5), timeout=60).result())
            rt.shutdown(wait=True)
    """).stdout.splitlines()
    assert out == ["False", "15"], out
    assert len((tmp_path / "marks").read_text().split()) == 1 + 2


@pytest.mark.skipif(not HAVE_CLOUDPICKLE, reason="cloudpickle absent")
def test_a_value_naming_a_main_global_fails_its_region_not_the_lane(tmp_path):
    """A pickle that names a ``__main__`` global by reference finds no such
    global in a worker, which never ran the parent's main module."""
    out = _run_script(tmp_path, """
        from repro.core import PjRuntime, RegionFailedError
        from repro.core.region import TargetRegion

        class Missing:
            def __reduce__(self):
                return "MISSING"

        MISSING = Missing()

        if __name__ == "__main__":
            rt = PjRuntime()
            rt.create_process_worker("p", 1)
            try:
                rt.invoke_target_block("p", TargetRegion(repr, MISSING), timeout=60).result()
            except RegionFailedError as exc:
                print(type(exc.__cause__).__name__)
                print(repr(exc.__cause__.cause))
                print(str(exc.__cause__).count("cannot be serialized"))
            else:
                print("no error")
            print(rt.invoke_target_block("p", TargetRegion(abs, -3), timeout=60).result())
            rt.shutdown(wait=True)
    """).stdout.splitlines()
    assert out[0] == "SerializationError", out
    assert out[1].startswith("AttributeError(") and "'MISSING'" in out[1], out
    assert out[2:] == ["1", "3"], out
