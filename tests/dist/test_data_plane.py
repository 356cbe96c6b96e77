"""The remote data plane, counted: parts, arenas, and copies per hop.

`wire.dumps_parts` must hand a large buffer to the channel as the caller's
own object; a pipe lane must move it through a parent-owned shared-memory
arena that leaks nothing and degrades to the pipe when the host has no
memory to share; and between `_execute_remote` and `_deliver`/`_run_task`
the payload is copied once per hop — by `wire.loads`, out of a view.
"""

from __future__ import annotations

import inspect
import logging
import multiprocessing
import os
import pickle
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterAgent
from repro.cluster.transport import TcpTransport
from repro.core import PjRuntime
from repro.core.errors import SerializationError
from repro.core.region import TargetRegion
from repro.dist import RemoteLaneTarget, arena, wire, worker
from repro.dist.arena import Arena, ArenaChannel

from . import bodies
from .conftest import SHM_DIR, own_segments
from .loopback import LoopbackLane, LoopbackTarget

K = wire.ATTACH_MIN_BYTES
MIB = 1 << 20
needs_shm = pytest.mark.skipif(not os.path.isdir(SHM_DIR), reason="no /dev/shm")


# ------------------------------------------------------------------- parts


class TestParts:
    @pytest.mark.parametrize("make", [bytes, bytearray], ids=lambda t: t.__name__)
    def test_a_large_buffer_is_handed_over_not_copied(self, make):
        payload = make(os.urandom(K))
        parts = wire.dumps_parts((bodies.echo, (payload,), {}))
        assert type(parts) is wire.Parts
        assert sum(part is payload for part in parts) == 1
        assert parts.nbytes == sum(len(p) for p in parts) > K

    def test_a_contiguous_array_arrives_as_a_flat_view_of_its_memory(self):
        array = np.arange(K, dtype=np.float64).reshape(4, -1)
        parts = wire.dumps_parts(array)
        views = [p for p in parts if isinstance(p, memoryview)]
        assert len(views) == 1 and views[0].nbytes == len(views[0]) == array.nbytes
        assert np.shares_memory(np.frombuffer(views[0], dtype=np.uint8), array)

    @pytest.mark.parametrize("size", [0, 1, 64, K // 2, K - 100])
    def test_below_the_threshold_the_payload_is_one_bytes_as_ever(self, size):
        blob = wire.dumps_parts((bodies.echo, (os.urandom(size),), {}))
        assert type(blob) is bytes and len(blob) < K
        assert blob == wire.dumps((bodies.echo, (wire.loads(blob)[1][0],), {}))

    @pytest.mark.parametrize("size", [K - 1, K, K + 1, MIB])
    def test_the_parts_concatenate_to_the_pickle_stream(self, size):
        obj = {"a": os.urandom(size), "b": bytearray(os.urandom(size)), "n": [size]}
        parts = wire.dumps_parts(obj)
        assert type(parts) is wire.Parts and parts.nbytes >= K
        assert wire.loads(b"".join(parts)) == obj
        assert wire.loads(memoryview(b"".join(parts))) == obj
        assert wire.loads(wire.dumps(obj)) == obj

    def test_a_pickler_that_writes_eagerly_still_gives_bytes_below_the_threshold(self):
        # The pure-Python pickler writes every frame as header + data; only
        # the size, never the part count, makes a payload an attachment.
        blob = wire._dump_parts(pickle._Pickler, {"k": os.urandom(K // 4)})
        assert type(blob) is bytes and wire.loads(blob)["k"]

    def test_serialization_is_eager_and_complete(self):
        # Nothing is left to fail at send time: the lock is found now,
        # after the large buffer ahead of it was already written.
        with pytest.raises(SerializationError) as exc_info:
            wire.dumps_parts((os.urandom(MIB), threading.Lock()), what="payload of 'r'")
        assert "payload of 'r'" in str(exc_info.value)

    def test_in_band_a_parts_blob_arrives_as_plain_bytes(self):
        payload = os.urandom(MIB)
        msg = wire.TaskMsg(1, "r", None, wire.dumps_parts(payload), False)
        for protocol in (4, wire.PICKLE_PROTOCOL):
            clone = pickle.loads(pickle.dumps(msg, protocol))
            assert type(clone.blob) is bytes and wire.loads(clone.blob) == payload

    def test_dump_frame_splits_at_the_threshold_and_restores_the_message(self):
        small = wire.TaskMsg(1, "r", None, wire.dumps_parts(b"x" * 64), False)
        body, attached = wire.dump_frame(small)
        assert attached is None and body == [
            pickle.dumps((wire.TaskMsg.code, 1, "r", None, small.blob, False), wire.PICKLE_PROTOCOL)
        ]
        assert wire.loads(wire.load_frame(body[0], None).blob) == b"x" * 64
        payload = os.urandom(MIB)
        large = wire.TaskMsg(2, "r", None, wire.dumps_parts(payload), False)
        blob = large.blob
        body, attached = wire.dump_frame(large)
        assert attached == blob.nbytes and large.blob is blob
        assert any(part is payload for part in body)
        assert len(body[0]) < 200, "the envelope still holds the payload"
        clone = wire.load_frame(body[0], memoryview(b"".join(body[1:])))
        assert clone.seq == 2 and wire.loads(clone.blob) == payload

    def test_an_attachment_needs_a_message_with_a_blob_field(self):
        for envelope in (pickle.dumps(wire.PingMsg(1)), pickle.dumps({"not": "a msg"})):
            with pytest.raises(OSError, match="desynchronized"):
                wire.load_frame(envelope, memoryview(b"stray"))


# ------------------------------------------------------------------ arenas


@needs_shm
class TestArena:
    def test_create_reserves_a_power_of_two_and_release_unlinks_once(self):
        a = Arena.create(K + 1)
        try:
            assert a.size == 2 * K and a.name in own_segments()
            assert os.stat(os.path.join(SHM_DIR, a.name)).st_blocks * 512 >= a.size, (
                "pages not reserved: a full /dev/shm would be a SIGBUS, not an OSError"
            )
        finally:
            a.release()
        assert a.name not in own_segments()
        a.release()  # idempotent

    def test_a_host_without_room_is_an_oserror_and_leaves_no_segment(self, monkeypatch):
        def full(fd, offset, size):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "posix_fallocate", full)
        before = own_segments()
        with pytest.raises(OSError):
            Arena.create(MIB)
        assert own_segments() == before

    def test_a_reclaimed_view_is_dead_not_stale(self):
        a = Arena.create(K)
        try:
            a.write(wire.Parts([b"abc", bytearray(b"def"), memoryview(b"ghi")]))
            view = a.lend(9)
            assert bytes(view) == b"abcdefghi"
            a.reclaim()
            with pytest.raises(ValueError):
                view[0]
        finally:
            a.release()

    def test_release_takes_the_lent_view_back_first(self):
        a = Arena.create(K)
        view = a.lend(8)
        a.release()  # a BufferError here would leave the mapping behind
        with pytest.raises(ValueError):
            view[0]
        assert a.name not in own_segments()

    def test_attach_sees_the_creators_bytes_owns_nothing_and_tells_no_tracker(self, monkeypatch):
        from multiprocessing import resource_tracker

        a = Arena.create(K)
        try:
            a.write(wire.Parts([b"hello"]))
            told = []
            monkeypatch.setattr(resource_tracker, "register", lambda *args: told.append(args))
            b = Arena.attach(a.name)
            assert b.size == a.size and bytes(b.lend(5)) == b"hello"
            b.release()
            assert a.name in own_segments() and not told
        finally:
            a.release()


_ARENA = "<the arena>"  # stands for the parent arena's name, known only at run time
_OTHER = st.one_of(st.none(), st.integers(), st.floats(), st.text(max_size=4),
                   st.binary(max_size=4), st.booleans())
_FORGED_STAND_INS = st.one_of(
    # the wrong arity
    st.lists(st.one_of(st.just(_ARENA), _OTHER), max_size=4)
    .filter(lambda fields: len(fields) != 2).map(tuple),
    # a size that is no int
    st.tuples(st.just(_ARENA), _OTHER.filter(lambda v: type(v) is not int)),
    # a size outside the segment
    st.tuples(st.just(_ARENA), st.one_of(st.integers(max_value=-1),
                                          st.integers(min_value=K + 1))),
    # a segment name that is no str
    st.tuples(_OTHER.filter(lambda v: type(v) is not str), st.integers(0, K)),
)


@needs_shm
def test_a_forged_arena_stand_in_is_a_desynchronized_stream():
    """Whatever tuple the peer puts in a blob's place, the parent end's
    ``recv`` either lends a view inside its arena or raises the
    ``OSError`` a malformed envelope raises — never ``ValueError``,
    ``TypeError`` or a view cut short of what was claimed."""
    parent_end, raw = multiprocessing.Pipe()
    chan = ArenaChannel(parent_end, owner=True, label="parent")
    chan._in = Arena.create(K)
    name = chan._in.name

    def forge(stand_in):
        fields = tuple(name if f == _ARENA else f for f in stand_in)
        msg = wire.ResultMsg(1, True, None, None, None, None, [], 0)
        raw.send_bytes(wire.dumps_msg(msg, fields))

    @settings(max_examples=300, deadline=None)
    @given(_FORGED_STAND_INS)
    def forged(stand_in):
        forge(stand_in)
        with pytest.raises(OSError, match="desynchronized"):
            chan.recv()

    try:
        forged()
        for nbytes in (0, K):  # the edges are no forgery
            forge((_ARENA, nbytes))
            assert len(chan.recv().blob) == nbytes
    finally:
        chan.close()
        raw.close()


def _solo(rt, **kwargs):
    target = rt.create_process_worker("solo", 1, heartbeat_interval=0.25, **kwargs)
    return target, target._slots[0]


def _echo(rt, data, body=bodies.echo):
    return rt.invoke_target_block("solo", TargetRegion(body, data), timeout=60.0).result()


class TestProcessLaneArenas:
    def test_below_the_threshold_no_arena_exists(self):
        rt = PjRuntime()
        try:
            target, slot = _solo(rt)
            data = os.urandom(K // 2)
            assert _echo(rt, data) == data
            # Only now is the lane certainly open: its shipper thread opens
            # it asynchronously, and until then `slot.task` is None.
            assert type(slot.task) is ArenaChannel
            assert slot.task._out is None and slot.task._in is None
            assert not own_segments()
        finally:
            rt.shutdown(wait=False)

    @needs_shm
    def test_arenas_appear_with_the_first_large_payload_and_grow_on_demand(self):
        rt = PjRuntime()
        try:
            target, slot = _solo(rt)
            first = os.urandom(2 * K)
            assert _echo(rt, first) == first
            out, in_ = slot.task._out, slot.task._in
            # The argument went out through shared memory at once; the
            # result came through the pipe, once, and bought an arena.
            assert out.size == in_.size == 4 * K
            assert own_segments() == {out.name, in_.name}
            assert _echo(rt, first) == first
            assert (slot.task._out, slot.task._in) == (out, in_), "reused, not remade"
            big = os.urandom(MIB)
            assert _echo(rt, big) == big
            assert _echo(rt, big) == big
            assert slot.task._out.size == slot.task._in.size == 2 * MIB
            assert own_segments() == {slot.task._out.name, slot.task._in.name}
            short = os.urandom(K)  # after a long one, through the same arena
            assert _echo(rt, short) == short
            assert target.restart_count == 0
        finally:
            rt.shutdown(wait=False)

    @needs_shm
    def test_a_large_result_from_a_small_argument_uses_the_offered_arena(self, monkeypatch):
        seen = []
        real = wire.loads
        monkeypatch.setattr(
            wire, "loads", lambda blob, **kw: (seen.append(type(blob)), real(blob, **kw))[1]
        )
        rt = PjRuntime()
        try:
            target, slot = _solo(rt)
            for _ in range(3):
                assert _echo(rt, MIB, body=bytes) == bytes(MIB)
            assert slot.task._out is None, "a small argument needs no arena"
            assert seen == [bytes, memoryview, memoryview]
        finally:
            rt.shutdown(wait=False)

    def test_payloads_above_the_cap_go_through_the_pipe(self, monkeypatch):
        monkeypatch.setattr(arena, "ARENA_MAX_BYTES", 4 * K)
        rt = PjRuntime()
        try:
            target, slot = _solo(rt)
            data = os.urandom(MIB)
            assert _echo(rt, data) == data
            assert slot.task._out is None and slot.task._in is None
        finally:
            rt.shutdown(wait=False)

    def test_without_shared_memory_large_payloads_fall_back_in_band(self, monkeypatch, caplog):
        def no_room(nbytes):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(Arena, "create", staticmethod(no_room))
        rt = PjRuntime()
        try:
            target, slot = _solo(rt)
            with caplog.at_level(logging.WARNING, logger="repro.dist.arena"):
                for size in (MIB, 2 * MIB, K):
                    data = os.urandom(size)
                    assert _echo(rt, data) == data
            assert slot.task._out is None and slot.task._in is None
            assert target.restart_count == 0 and target.stats["worker_crashes"] == 0
            warnings = [r for r in caplog.records if "no shared memory" in r.getMessage()]
            assert len(warnings) == 1, "logged once per lane, not per payload"
        finally:
            rt.shutdown(wait=False)


def test_shared_memory_is_imported_only_by_a_pipe_lane_that_needs_it():
    # Neither a cluster agent's start-up, nor a thread-only runtime, nor a
    # process lane moving small payloads pays for multiprocessing.shared_memory.
    code = (
        "import sys, repro.dist, repro.cluster.agent, repro.cluster.target\n"
        "from repro.core import PjRuntime\n"
        "from repro.core.region import TargetRegion\n"
        "def main():\n"
        "    rt = PjRuntime(); rt.create_worker('w', 1); rt.create_process_worker('p', 1)\n"
        "    assert rt.invoke_target_block('p', TargetRegion(bytes, bytes(64))).result() == bytes(64)\n"
        "    assert 'multiprocessing.shared_memory' not in sys.modules\n"
        "    big = bytes(1 << 20)\n"
        "    assert rt.invoke_target_block('p', TargetRegion(bytes, big)).result() == big\n"
        "    assert 'multiprocessing.shared_memory' in sys.modules\n"
        "    rt.shutdown(wait=True)\n"
        "if __name__ == '__main__':\n"
        "    main()\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=90.0
    )
    assert done.returncode == 0, done.stderr


# ------------------------------------------------------------------ copies


class _Recording:
    """A channel end that notes every message handed to ``send``."""

    def __init__(self, chan, sent):
        self._chan, self._sent = chan, sent

    def send(self, msg):
        self._sent.append(msg)
        self._chan.send(msg)

    def __getattr__(self, name):
        return getattr(self._chan, name)


class _RecordingLane(LoopbackLane):
    sent: list = []

    def open(self):
        super().open()
        self.task = _Recording(self.task, self.sent)


def test_the_channel_is_handed_the_callers_own_object():
    payload = os.urandom(MIB)
    _RecordingLane.sent = sent = []
    rt = PjRuntime()
    try:
        rt.register_target(LoopbackTarget("rec", 1, lane=_RecordingLane))
        got = rt.invoke_target_block("rec", TargetRegion(bodies.echo, payload)).result()
        assert got == payload and got is not payload
    finally:
        rt.shutdown(wait=False)
    (task,) = [m for m in sent if isinstance(m, wire.TaskMsg)]
    assert type(task.blob) is wire.Parts
    assert sum(part is payload for part in task.blob) == 1


@pytest.fixture()
def counted_loads(monkeypatch):
    calls = []
    real = wire.loads

    def loads(blob, **kwargs):
        calls.append((type(blob), len(blob)))
        return real(blob, **kwargs)

    monkeypatch.setattr(wire, "loads", loads)
    return calls


def test_one_loads_per_attachment_from_a_view_on_a_tcp_lane(counted_loads):
    # Both ends of the lane are in this process, so both loads are seen.
    payload = os.urandom(MIB)
    rt = PjRuntime()
    with ClusterAgent() as agent:
        try:
            rt.create_cluster("c", [f"{agent.host}:{agent.port}"])
            rt.invoke_target_block("c", TargetRegion(bodies.echo, b"warm")).result()
            del counted_loads[:]
            got = rt.invoke_target_block("c", TargetRegion(bodies.echo, payload)).result()
            assert got == payload
        finally:
            rt.shutdown(wait=False)
    assert [kind for kind, _ in counted_loads] == [memoryview, memoryview]
    assert all(MIB < size < MIB + 200 for _, size in counted_loads)


@needs_shm
def test_one_loads_per_result_from_the_arena_on_a_process_lane(counted_loads):
    payload = os.urandom(MIB)
    rt = PjRuntime()
    try:
        _solo(rt)
        assert _echo(rt, payload) == payload  # buys the result arena
        del counted_loads[:]
        got = _echo(rt, payload)
        assert type(got) is bytes and got == payload
    finally:
        rt.shutdown(wait=False)
    assert [kind for kind, _ in counted_loads] == [memoryview]


def test_no_full_payload_copy_is_spelled_between_dispatch_and_delivery():
    # What the two tests above count at run time, pinned in the source: no
    # code between _execute_remote and the channel, inside the channels'
    # large path, or between the channel and _deliver/_run_task builds a
    # second full-size object.
    path = [
        RemoteLaneTarget._execute_remote, RemoteLaneTarget._await_result,
        RemoteLaneTarget._deliver, worker._run_task, worker.task_loop,
        ArenaChannel.send, ArenaChannel.recv, Arena.write, Arena.lend,
        TcpTransport.send, TcpTransport.recv, TcpTransport._read,
        wire.dumps_parts, wire.loads, wire.load_frame,
    ]
    for fn in path:
        source = inspect.getsource(fn)
        for copy in ("bytes(", ".join(", "getvalue(", "tobytes(", "blob +", "+ blob"):
            assert copy not in source, f"{fn.__qualname__} spells {copy!r}"


def test_an_8_mib_echo_over_tcp_peaks_at_three_payloads():
    # Per hop: the receive buffer and the object loads() builds from it.
    # Everything else the old path allocated — the blob, the message pickle
    # around it, header + blob, the bytes() of the frame — is gone: three
    # payloads are alive at the peak where the nested-pickle path had six.
    size = 8 * MIB
    payload = os.urandom(size)
    rt = PjRuntime()
    with ClusterAgent() as agent:
        try:
            rt.create_cluster("c", [f"{agent.host}:{agent.port}"])
            rt.invoke_target_block("c", TargetRegion(bodies.echo, payload)).result()
            tracemalloc.start()
            try:
                base, _ = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                got = rt.invoke_target_block("c", TargetRegion(bodies.echo, payload)).result()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert got == payload
        finally:
            rt.shutdown(wait=False)
    assert peak - base < 3.5 * size, f"peak {(peak - base) / size:.2f} payloads"
