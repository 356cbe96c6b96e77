"""The worker agent: handshake, task/ctrl protocol, forked and CLI bring-up."""

from __future__ import annotations

import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import textwrap
import time

import pytest

from repro.cluster.agent import _ANNOUNCE_RE, ClusterAgent, announce_line
from repro.cluster.transport import (
    connect, expect_hello, loopback_pair, parse_endpoint, send_hello,
)
from repro.core import PjRuntime
from repro.core.errors import ProtocolVersionError
from repro.core.region import TargetRegion
from repro.dist import wire

from tests.dist import bodies


def open_channel(agent, role, *, slot=0, target_name="t"):
    """Connect one channel to an in-process agent, handshake included."""
    tr = connect(agent.host, agent.port)
    send_hello(tr, role, target_name=target_name, slot=slot)
    hello = expect_hello(tr)
    assert hello.role == "agent"
    return tr


def _refused_both_ways(old):
    """A peer at protocol version *old* fails at the hello, as parent and
    as agent, with the structured error on the current end."""
    with ClusterAgent() as agent:  # an old parent meets a current agent
        tr = connect(agent.host, agent.port)
        try:
            tr.send(wire.HelloMsg(old, "task", "t", 0, {}))
            assert tr.recv().version == wire.PROTOCOL_VERSION
            assert tr.poll(5.0)
            with pytest.raises(EOFError):
                tr.recv()
        finally:
            tr.close()
    parent, old_agent = loopback_pair()  # a current parent meets an old agent
    old_agent.send(wire.HelloMsg(old, "agent", None, None, {}))
    with pytest.raises(ProtocolVersionError) as exc_info:
        expect_hello(parent, peer=f"v{old} agent")
    assert (exc_info.value.ours, exc_info.value.theirs) == (wire.PROTOCOL_VERSION, old)


class TestHandshake:
    def test_agent_answers_with_versioned_hello(self):
        with ClusterAgent() as agent:
            tr = connect(agent.host, agent.port)
            try:
                send_hello(tr, "task", target_name="t", slot=0)
                hello = expect_hello(tr)
                assert hello.version == wire.PROTOCOL_VERSION
                assert hello.role == "agent"
                assert hello.meta["pid"] == os.getpid()  # in-process agent
            finally:
                tr.close()

    def test_version_mismatch_answered_then_closed(self):
        # The agent replies with its own hello (so the stale client can
        # raise a structured ProtocolVersionError too), then hangs up —
        # no task loop ever starts.
        with ClusterAgent() as agent:
            tr = connect(agent.host, agent.port)
            try:
                tr.send(wire.HelloMsg(999, "task", "t", 0, {}))
                reply = tr.recv()
                assert isinstance(reply, wire.HelloMsg)
                assert reply.version == wire.PROTOCOL_VERSION
                assert tr.poll(5.0)
                with pytest.raises(EOFError):
                    tr.recv()
            finally:
                tr.close()

    def test_a_version_2_peer_is_refused_at_hello(self):
        # Version 2 had a tagged task message with a second reply that
        # version 3 dropped: a v2 peer must fail at hello, not wait for it.
        assert wire.PROTOCOL_VERSION == 4
        _refused_both_ways(2)

    def test_a_version_3_peer_is_refused_at_hello(self):
        # Version 3 pickled every message as its class; version 4 sends a
        # flat tuple that a v3 peer cannot read, so the hello must stop it.
        _refused_both_ways(3)

    def test_garbage_first_frame_closes_the_connection(self):
        with ClusterAgent() as agent:
            tr = connect(agent.host, agent.port)
            try:
                tr.send({"not": "a hello"})
                assert tr.poll(5.0)
                with pytest.raises(EOFError):
                    tr.recv()
            finally:
                tr.close()


class TestTaskProtocol:
    def test_clock_probe_and_task_round_trip(self):
        with ClusterAgent() as agent:
            tr = open_channel(agent, "task")
            try:
                tr.send(wire.SyncMsg(123))
                ack = tr.recv()
                assert isinstance(ack, wire.SyncAck)
                assert ack.pid == os.getpid()

                blob = wire.dumps((bodies.square, (7,), {}))
                tr.send(wire.TaskMsg(1, "sq", None, blob, False))
                result = tr.recv()
                assert isinstance(result, wire.ResultMsg)
                assert result.seq == 1 and result.ok
                assert wire.loads(result.blob) == 49
                assert agent.tasks_executed == 1
            finally:
                tr.close()

    def test_failing_body_reports_one_error_result(self):
        with ClusterAgent() as agent:
            tr = open_channel(agent, "task")
            try:
                blob = wire.dumps((bodies.boom, ("kapow",), {}))
                tr.send(wire.TaskMsg(6, "boom", None, blob, False))
                result = tr.recv()
                assert isinstance(result, wire.ResultMsg) and not result.ok
                assert result.seq == 6 and not tr.poll(0.2)  # nothing else follows
                exc = wire.unpack_exception(
                    result.exc_blob, result.exc_text, result.exc_tb
                )
                assert isinstance(exc, ValueError)
            finally:
                tr.close()

    def test_unknown_message_is_skipped_not_fatal(self):
        with ClusterAgent() as agent:
            tr = open_channel(agent, "task")
            try:
                tr.send(wire.PongMsg(0, 0))  # nonsense on a task channel
                blob = wire.dumps((bodies.square, (2,), {}))
                tr.send(wire.TaskMsg(9, "sq", None, blob, False))
                result = tr.recv()
                assert isinstance(result, wire.ResultMsg) and result.ok
            finally:
                tr.close()


class TestCtrlProtocol:
    def test_ping_pong(self):
        with ClusterAgent() as agent:
            tr = open_channel(agent, "ctrl")
            try:
                tr.send(wire.PingMsg(42))
                pong = tr.recv()
                assert isinstance(pong, wire.PongMsg)
                assert pong.sent_ns == 42
            finally:
                tr.close()

    def test_cancel_reaches_the_executing_region(self):
        with ClusterAgent() as agent:
            task = open_channel(agent, "task", slot=1)
            ctrl = open_channel(agent, "ctrl", slot=1)
            try:
                blob = wire.dumps((bodies.cooperative_loop, (30.0,), {}))
                task.send(wire.TaskMsg(3, "loop", None, blob, False))
                time.sleep(0.2)  # let the body start polling its token
                ctrl.send(wire.CancelMsg(3))
                result = task.recv()
                assert result.ok
                assert wire.loads(result.blob) == "cancelled"
            finally:
                task.close()
                ctrl.close()


class TestSlotCap:
    def test_max_slots_refuses_extra_task_connections(self):
        with ClusterAgent(max_slots=1) as agent:
            first = open_channel(agent, "task", slot=0)
            try:
                second = connect(agent.host, agent.port)
                try:
                    send_hello(second, "task", target_name="t", slot=1)
                    # Refused before the agent's hello: the reply never comes.
                    with pytest.raises((EOFError, Exception)):
                        expect_hello(second, timeout=5.0)
                finally:
                    second.close()
            finally:
                first.close()


    def test_a_closed_task_connection_frees_its_slot(self):
        with ClusterAgent(max_slots=1) as agent:
            for slot in range(3):
                open_channel(agent, "task", slot=slot).close()
                assert _soon(lambda: not agent._threads)


def _soon(predicate, budget=10.0):
    deadline = time.monotonic() + budget
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.01)
    return predicate()


class TestConnectionThreads:
    def test_closed_connections_leave_no_thread_behind(self):
        # Nothing an agent keeps may grow with uptime: a connection's
        # thread goes when the connection does.
        with ClusterAgent() as agent:
            for _ in range(1000):
                open_channel(agent, "ctrl").close()
            assert _soon(lambda: len(agent._threads) <= 2), len(agent._threads)
            assert agent.connections_served == 1000


class TestSpawnedAgent:
    def test_announce_line_format(self):
        line = announce_line("127.0.0.1", 1234)
        assert "listening on 127.0.0.1:1234" in line
        assert f"protocol {wire.PROTOCOL_VERSION}" in line

    def test_spawn_connect_and_close(self, agent):
        assert agent.alive()
        tr = connect(*parse_endpoint(agent.endpoint))
        try:
            send_hello(tr, "task", target_name="t", slot=0)
            hello = expect_hello(tr)
            assert hello.meta["pid"] == agent.pid  # a real separate process
            tr.send(wire.SyncMsg(1))
            ack = tr.recv()
            assert ack.pid == agent.pid
        finally:
            tr.close()
        agent.close()
        assert not agent.alive()

    def test_an_agent_is_no_child_of_its_creator(self, agent):
        """Forked from the lane server: nothing that joins this process's
        children (``benchmarks/e2e`` does, before each agent's close) waits
        on it."""
        assert agent.pid not in {c.pid for c in multiprocessing.active_children()}
        assert _parent_of(agent.pid) != os.getpid()

    def test_close_returns_within_a_second(self, agent):
        t0 = time.monotonic()
        agent.close()
        assert time.monotonic() - t0 < 1.0
        assert not agent.alive()
        agent.close()  # again: a no-op

    def test_terminate_ends_the_agent_and_wait_reports_it(self, agent):
        pid = agent.pid
        agent.terminate()
        assert agent.wait(5.0) == -signal.SIGTERM
        assert not agent.alive() and agent.pid == pid
        assert _refused(agent.host, agent.port)

    def test_a_creator_without_cloudpickle_runs_once_and_hears_nothing(self, tmp_path):
        """The agent never runs the creator's main module, even where plain
        pickle would have a process lane's worker run it, and prints
        nothing onto the creator's stderr (here a refused hello, which the
        agent logs as a warning)."""
        done = _run_script(tmp_path, """
            import os
            import sys

            sys.modules["cloudpickle"] = None  # import cloudpickle fails
            with open("marks", "a") as marks:
                marks.write(f"{os.getpid()}\\n")

            from repro.cluster import connect, spawn_agent_process
            from repro.core import PjRuntime
            from repro.core.region import TargetRegion
            from repro.dist import wire

            agent = spawn_agent_process()
            rt = PjRuntime()
            try:
                rt.create_cluster("c", [agent.endpoint], shards=1)
                print(wire.HAVE_CLOUDPICKLE, rt.invoke_target_block(
                    "c", TargetRegion(os.getpid), timeout=60).result() == agent.pid)
                tr = connect(agent.host, agent.port)
                tr.send(wire.HelloMsg(999, "task", "t", 0, {}))
                tr.recv()
                assert tr.poll(5.0)
                try:
                    tr.recv()
                except EOFError:
                    pass
                tr.close()
            finally:
                rt.shutdown(wait=True)
                agent.close()
        """)
        assert done.stdout.split() == ["False", "True"], done.stdout
        assert len((tmp_path / "marks").read_text().split()) == 1
        assert done.stderr == ""

    def test_an_agent_goes_when_its_creator_is_killed(self, tmp_path):
        script = tmp_path / "creator.py"
        script.write_text(textwrap.dedent("""
            import time
            from repro.cluster import spawn_agent_process

            agent = spawn_agent_process()
            print(agent.pid, agent.port, flush=True)
            time.sleep(60)
        """))
        creator = subprocess.Popen([sys.executable, str(script)], env=_env(),
                                   stdout=subprocess.PIPE, text=True)
        try:
            pid, port = map(int, creator.stdout.readline().split())
        finally:
            creator.kill()
            creator.wait()
            creator.stdout.close()
        # A leader that has exited reads as a zombie while its other threads
        # still close the process's files: wait for the listener too.
        assert _soon(lambda: _gone(pid) and _refused("127.0.0.1", port), 5.0), (
            f"agent {pid} outlived its creator")


class TestCliAgent:
    def test_cluster_worker_announces_serves_and_exits_0_on_sigint(self):
        """``python -m repro cluster-worker``, the agent of a real host."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "cluster-worker", "--listen", "127.0.0.1:0"],
            env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        rt = PjRuntime()
        try:
            match = _ANNOUNCE_RE.search(proc.stdout.readline())
            assert match is not None
            rt.create_cluster("cli", [f"{match.group(1)}:{match.group(2)}"], shards=1)
            assert rt.invoke_target_block(
                "cli", TargetRegion(os.getpid), timeout=60.0).result() == proc.pid
        finally:
            rt.shutdown(wait=True)
            proc.send_signal(signal.SIGINT)
            try:
                out, err = proc.communicate(timeout=10.0)
            finally:
                proc.kill()
        assert proc.returncode == 0, err


def _env() -> dict:
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))), "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def _run_script(tmp_path, source: str) -> subprocess.CompletedProcess:
    script = tmp_path / "scenario.py"
    script.write_text(textwrap.dedent(source))
    done = subprocess.run([sys.executable, str(script)], env=_env(), cwd=tmp_path,
                          capture_output=True, text=True, timeout=90)
    assert done.returncode == 0, done.stderr
    return done


def _stat(pid: int) -> list[str]:
    """The fields of ``/proc/<pid>/stat`` after the command name."""
    with open(f"/proc/{pid}/stat") as f:
        return f.read().rsplit(")", 1)[1].split()


def _parent_of(pid: int) -> int:
    return int(_stat(pid)[1])


def _gone(pid: int) -> bool:
    """No such process, or a zombie nobody has reaped yet."""
    try:
        return _stat(pid)[0] == "Z"
    except FileNotFoundError:
        return True


def _refused(host: str, port: int) -> bool:
    try:
        socket.create_connection((host, port), timeout=1.0).close()
    except OSError:
        return True
    return False
