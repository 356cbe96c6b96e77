"""Wire-format unit tests: serialization, exception shipping, messages."""

from __future__ import annotations

import multiprocessing
import os
import pickle
import subprocess
import sys
import threading
import types

import pytest

import repro
from repro.cluster import ClusterAgent
from repro.cluster import transport as transport_mod
from repro.core import PjRuntime
from repro.core.errors import (
    RegionFailedError, RemoteExecutionError, SerializationError, WorkerCrashedError,
)
from repro.core.region import TargetRegion
from repro.dist import wire
from repro.dist.arena import ArenaChannel
from repro.dist.worker import _Current, task_loop

from . import bodies


class TestDumpsLoads:
    def test_round_trip(self):
        payload = ({"a": [1, 2, 3]}, (4, 5), {"k": "v"})
        assert wire.loads(wire.dumps(payload)) == payload

    def test_unpicklable_raises_serialization_error(self):
        with pytest.raises(SerializationError) as exc_info:
            wire.dumps(threading.Lock(), what="payload of region 'r'")
        assert "payload of region 'r'" in str(exc_info.value)
        assert exc_info.value.__cause__ is not None

    def test_corrupt_blob_raises_serialization_error(self):
        with pytest.raises(SerializationError):
            wire.loads(b"not a pickle")

    @pytest.mark.skipif(not wire.HAVE_CLOUDPICKLE, reason="cloudpickle absent")
    def test_lambda_round_trip_with_cloudpickle(self):
        fn = wire.loads(wire.dumps(lambda x: x + 1))
        assert fn(41) == 42


class TestExceptionShipping:
    def test_picklable_exception_survives_with_traceback(self):
        try:
            raise ValueError("kapow")
        except ValueError as exc:
            blob, text, tb = wire.pack_exception(exc)
        assert blob is not None
        assert "kapow" in text
        assert "ValueError" in tb
        rebuilt = wire.unpack_exception(blob, text, tb)
        assert isinstance(rebuilt, ValueError)
        assert rebuilt.remote_traceback == tb

    def test_unpicklable_exception_degrades_to_remote_error(self):
        class Cursed(Exception):
            def __init__(self):
                super().__init__("cursed")
                self.lock = threading.Lock()

        try:
            raise Cursed()
        except Cursed as exc:
            blob, text, tb = wire.pack_exception(exc)
        assert blob is None
        rebuilt = wire.unpack_exception(blob, text, tb)
        assert isinstance(rebuilt, RemoteExecutionError)
        assert "cursed" in str(rebuilt)
        assert rebuilt.remote_traceback == tb


class TestMessages:
    @pytest.mark.parametrize(
        "msg",
        [
            wire.SyncMsg(123),
            wire.SyncAck(456, 789),
            wire.TaskMsg(1, "r", "f.py:3", b"blob", True),
            wire.ResultMsg(1, True, b"ok", None, None, None, [], 0),
            wire.StopMsg(),
            wire.PingMsg(42),
            wire.PongMsg(42, 99),
            wire.CancelMsg(7),
        ],
        ids=lambda m: type(m).__name__,
    )
    def test_messages_pickle_round_trip(self, msg):
        clone = pickle.loads(pickle.dumps(msg))
        assert type(clone) is type(msg)
        for field in msg.__slots__:
            assert getattr(clone, field) == getattr(msg, field)

    def test_task_msg_fields(self):
        msg = wire.TaskMsg(9, "region", "a.py:1", b"x", False)
        assert (msg.seq, msg.name, msg.source) == (9, "region", "a.py:1")
        assert msg.blob == b"x" and msg.trace is False


# ------------------------------------------------------- the pickling rule

needs_cloudpickle = pytest.mark.skipif(not wire.HAVE_CLOUDPICKLE, reason="cloudpickle absent")


class Point:
    """A module-level class: pickled by reference, by either pickler."""

    def __init__(self, x):
        self.x = x

    def get(self):
        return self.x


def _cloud(obj):
    """What CloudPickler alone makes of *obj*: its bytes, or the text of
    the SerializationError that wraps its failure."""
    import cloudpickle

    try:
        return cloudpickle.dumps(obj, protocol=wire.PICKLE_PROTOCOL)
    except Exception as exc:  # noqa: BLE001
        return str(SerializationError("payload", exc))


def _ours(obj):
    try:
        return wire.dumps(obj)
    except SerializationError as exc:
        return str(exc)


def _cases():
    n = 41

    def closure(x):
        return x + n

    class Local:
        def __init__(self, v):
            self.v = v

    return {
        "lambda": lambda x: x + 1,
        "closure": closure,
        "local class": Local,
        "local instance": Local(3),
        "FunctionType": types.FunctionType,
        "NoneType": type(None),
        "lock": threading.Lock(),
        "module function": bodies.square,
        "module class instance": Point(2),
        "bound method": Point(4).get,  # a type cloudpickle reduces itself
        "payload": (bodies.add, (1, 2), {"k": [Point(1)]}),
        "exception": ValueError("kapow"),
    }


@needs_cloudpickle
class TestPicklingRule:
    """wire gives, byte for byte, what CloudPickler gives: the C pickler
    takes only what cloudpickle would pickle by reference anyway."""

    @pytest.mark.parametrize("case", sorted(_cases()))
    def test_the_same_bytes_or_the_same_error_as_cloudpickle(self, case):
        obj = _cases()[case]
        assert _ours(obj) == _cloud(obj)

    def test_a_main_function_goes_by_value_where_the_c_pickler_would_find_it(self, monkeypatch):
        def shipped(x):
            return 2 * x

        shipped.__module__, shipped.__qualname__ = "__main__", "wire_test_shipped"
        monkeypatch.setattr(sys.modules["__main__"], "wire_test_shipped", shipped, raising=False)
        by_reference = pickle.dumps(shipped, wire.PICKLE_PROTOCOL)
        assert _ours(shipped) == _cloud(shipped) != by_reference
        assert wire.loads(wire.dumps(shipped))(21) == 42

    def test_a_module_registered_by_value_is_pickled_by_value(self):
        import cloudpickle

        by_reference = pickle.dumps(bodies.square, wire.PICKLE_PROTOCOL)
        cloudpickle.register_pickle_by_value(bodies)
        try:
            assert _ours(bodies.square) == _cloud(bodies.square) != by_reference
        finally:
            cloudpickle.unregister_pickle_by_value(bodies)
        assert _ours(bodies.square) == by_reference

    def test_a_module_function_rebound_after_its_first_ship_goes_by_value(self, monkeypatch):
        first = bodies.square
        assert _ours(first) == pickle.dumps(first, wire.PICKLE_PROTOCOL)
        monkeypatch.setattr(bodies, "square", lambda x: -x)
        assert _ours(first) == _cloud(first)
        assert wire.loads(wire.dumps(first))(3) == 9

    @pytest.mark.skipif(wire._ByReference is None, reason="no C-speed path")
    def test_distinct_closures_and_instances_leave_the_memo_as_it_was(self):
        def make(i):
            return lambda: i

        wire.dumps_parts((bodies.square, (Point(0),), {}))
        before = set(wire._BY_REFERENCE)
        assert Point in before and bodies.square in before
        for i in range(10_000):
            wire.dumps_parts((make(i), (Point(i),), {}))
            wire.dumps_parts((bodies.square, (Point(i),), {}))
        assert wire._BY_REFERENCE == before


def _run(rt, name, body, *args):
    return rt.invoke_target_block(name, TargetRegion(body, *args), timeout=60.0).result()


@needs_cloudpickle
def test_by_value_bodies_and_values_cross_a_process_lane(monkeypatch):
    import cloudpickle

    cases = _cases()
    rt = PjRuntime()
    try:
        rt.create_process_worker("rule", 1)
        assert _run(rt, "rule", cases["lambda"], 1) == 2
        assert _run(rt, "rule", cases["closure"], 1) == 42
        local = _run(rt, "rule", cases["local class"], 5)
        assert type(local) is cases["local class"] and local.v == 5
        assert _run(rt, "rule", lambda t: t, types.FunctionType) is types.FunctionType
        assert _run(rt, "rule", lambda: type(None)) is type(None)
        first = bodies.square
        assert _run(rt, "rule", first, 3) == 9
        monkeypatch.setattr(bodies, "square", lambda x: -x)
        assert _run(rt, "rule", first, 4) == 16
        cloudpickle.register_pickle_by_value(bodies)
        try:
            assert _run(rt, "rule", bodies.add, 1, 2) == 3
        finally:
            cloudpickle.unregister_pickle_by_value(bodies)
        with pytest.raises(RegionFailedError) as exc_info:
            _run(rt, "rule", bodies.square, threading.Lock())
        assert isinstance(exc_info.value.__cause__, SerializationError)
        assert "cannot pickle '_thread.lock' object" in str(exc_info.value.__cause__)
    finally:
        rt.shutdown(wait=True)


_MAIN_OVER_A_CLUSTER_LANE = """
from repro.cluster import spawn_agent_process
from repro.core import PjRuntime
from repro.core.region import TargetRegion


def double(x):
    return 2 * x


class Point:
    def __init__(self, x):
        self.x = x


def run(body, *args):
    return rt.invoke_target_block("c", TargetRegion(body, *args), timeout=60.0).result()


agent = spawn_agent_process()  # its __main__ is repro.__main__: no double there
rt = PjRuntime()
try:
    rt.create_cluster("c", [agent.endpoint])
    assert run(double, 21) == 42
    assert run(lambda p: p.x + 1, Point(1)) == 2
    point = run(Point, 7)
    assert type(point) is Point and point.x == 7
    print("done", flush=True)
finally:
    rt.shutdown(wait=True)
    agent.close()
"""


@needs_cloudpickle
def test_main_bodies_cross_a_cluster_lane_by_value(tmp_path):
    script = tmp_path / "main_bodies.py"
    script.write_text(_MAIN_OVER_A_CLUSTER_LANE)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, str(script)], env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0 and "done" in proc.stdout, proc.stderr


# ------------------------------------------------------------- envelopes


def _round_trip(chan, payload):
    """Ship ``echo(payload)`` as a TaskMsg on *chan*; the ResultMsg's value."""
    chan.send(wire.TaskMsg(1, "r", None, wire.dumps_parts((bodies.echo, (payload,), {})), False))
    reply = chan.recv()
    assert type(reply) is wire.ResultMsg and reply.ok
    return wire.loads(reply.blob)


class _RecordedPipe:
    """A pipe end that keeps the bytes it sends and receives."""

    def __init__(self, conn, seen):
        self._conn, self._seen = conn, seen

    def send_bytes(self, data):
        self._seen.append(bytes(data))
        self._conn.send_bytes(data)

    def recv_bytes(self):
        data = self._conn.recv_bytes()
        self._seen.append(data)
        return data

    def __getattr__(self, name):
        return getattr(self._conn, name)


class TestEnvelopes:
    """Every message but the hello crosses as a flat tuple: no class global
    of this module is in the bytes of a task and its result, on any lane."""

    SIZES = (64, 1 << 20)

    def test_no_wire_global_crosses_a_pipe_lane(self):
        seen = []
        parent_end, worker_end = multiprocessing.Pipe()
        parent = ArenaChannel(_RecordedPipe(parent_end, seen), owner=True, label="parent")
        worker = ArenaChannel(_RecordedPipe(worker_end, seen), owner=False, label="worker")
        loop = threading.Thread(target=task_loop, args=(worker, _Current()), daemon=True)
        loop.start()
        try:
            for size in self.SIZES:
                payload = os.urandom(size)
                assert _round_trip(parent, payload) == payload
            parent.send(wire.StopMsg())
            loop.join(10.0)
            assert not loop.is_alive()
        finally:
            parent.close()
            worker.close()
        assert len(seen) >= 2 * 2 * len(self.SIZES)
        assert not any(b"repro.dist.wire" in data for data in seen)

    def test_no_wire_global_crosses_a_tcp_lane(self, monkeypatch):
        seen = []
        real = transport_mod._send_all

        def recording(sock, buffers, size):
            seen.append(b"".join(buffers))
            return real(sock, buffers, size)

        rt = PjRuntime()
        agent = ClusterAgent().start()
        try:
            rt.create_cluster("c", [f"{agent.host}:{agent.port}"])
            assert _run(rt, "c", bodies.echo, b"warm") == b"warm"  # hellos are past
            monkeypatch.setattr(transport_mod, "_send_all", recording)
            for size in self.SIZES:
                payload = os.urandom(size)
                assert _run(rt, "c", bodies.echo, payload) == payload
        finally:
            rt.shutdown(wait=True)
            agent.stop()
        assert len(seen) >= 2 * len(self.SIZES)
        assert not any(b"repro.dist.wire" in data for data in seen)

    def test_a_corrupt_reply_on_a_pipe_lane_fails_the_waiter_as_a_crash(self):
        rt = PjRuntime()
        try:
            target = rt.create_process_worker("corrupt", 1)
            assert _run(rt, "corrupt", bodies.square, 2) == 4
            chan = target._slots[0].task
            real = chan._get
            chan._get = lambda: real()[:-1]  # the reply's pickle, truncated
            with pytest.raises(RegionFailedError) as exc_info:
                _run(rt, "corrupt", bodies.square, 3)
            assert isinstance(exc_info.value.__cause__, WorkerCrashedError)
            assert _run(rt, "corrupt", bodies.square, 4) == 16  # a new worker
        finally:
            rt.shutdown(wait=True)
