"""Transport layer: framing, failure mapping, the versioned hello."""

from __future__ import annotations

import os
import socket
import struct
import threading
import time

import pytest

from repro.core.errors import ProtocolVersionError, RuntimeStateError, SerializationError
from repro.cluster.transport import (
    MAX_FRAME_BYTES,
    TcpTransport,
    connect,
    expect_hello,
    listen,
    loopback_pair,
    parse_endpoint,
    send_hello,
)
from repro.dist import wire


def tcp_pair():
    """A connected (client, server) TcpTransport pair on loopback."""
    listener = listen()
    client = connect(listener.host, listener.port)
    server = listener.accept(timeout=5.0)
    listener.close()
    assert server is not None
    return client, server


class TestLoopback:
    def test_round_trip_pickles(self):
        a, b = loopback_pair()
        a.send({"k": [1, 2, 3]})
        assert b.recv() == {"k": [1, 2, 3]}
        b.send(wire.PingMsg(7))
        msg = a.recv()
        assert isinstance(msg, wire.PingMsg) and msg.sent_ns == 7

    def test_poll_semantics(self):
        a, b = loopback_pair()
        assert not b.poll(0)
        a.send("x")
        assert b.poll(0)
        b.recv()
        assert not b.poll(0.01)

    def test_close_maps_to_pipe_failures(self):
        a, b = loopback_pair()
        a.send("last words")
        a.close()
        assert b.recv() == "last words"  # drains what was queued
        assert b.poll(0)                 # a tear counts as readable
        assert b.eof
        with pytest.raises(EOFError):
            b.recv()
        with pytest.raises(OSError):
            b.send("into the void")
        with pytest.raises(OSError):
            a.send("already closed")

    def test_unpicklable_payload_raises_on_send(self):
        a, _b = loopback_pair()
        with pytest.raises(Exception):
            a.send(threading.Lock())


class TestTcp:
    def test_round_trip_and_large_frame(self):
        client, server = tcp_pair()
        try:
            client.send(list(range(1000)))
            assert server.recv() == list(range(1000))
            blob = b"x" * (1 << 20)  # 1 MiB: spans many recv chunks
            server.send(blob)
            assert client.recv() == blob
        finally:
            client.close()
            server.close()

    def test_concurrent_sends_do_not_interleave_frames(self):
        client, server = tcp_pair()
        try:
            n = 50
            # Every tenth sender's frame is far larger than a socket buffer,
            # so it is still mid-send when the small ones try to cut in.
            payloads = [
                bytes([i]) * ((1 << 20) + i if i % 10 == 0 else 1000 + i)
                for i in range(n)
            ]
            threads = [
                threading.Thread(target=client.send, args=(p,))
                for p in payloads
            ]
            for t in threads:
                t.start()
            received = [server.recv() for _ in range(n)]
            for t in threads:
                t.join()
            assert sorted(received) == sorted(payloads)
        finally:
            client.close()
            server.close()

    def test_peer_close_maps_to_eof_and_oserror(self):
        client, server = tcp_pair()
        server.close()
        assert client.poll(5.0)  # the tear is readable, not a hang
        with pytest.raises(EOFError):
            client.recv()
        assert client.eof
        client.close()

    def test_poll_zero_looks_at_the_socket(self):
        # poll(0) is how the idle check collects pongs and how is_alive()
        # finds an idle tear; it must do one zero-timeout select, not give
        # up because the (zero) deadline has already passed.
        def soon(predicate, budget=5.0):
            deadline = time.monotonic() + budget
            while not predicate() and time.monotonic() < deadline:
                time.sleep(0.01)
            return predicate()

        client, server = tcp_pair()
        try:
            assert not server.poll(0)  # nothing sent yet
            client.send("x")
            assert soon(lambda: server.poll(0)), "poll(0) never saw the frame"
            assert server.recv() == "x"
            assert not server.poll(0)
            client.close()
            assert soon(lambda: server.poll(0)), "poll(0) never saw the close"
            assert server.eof
        finally:
            client.close()
            server.close()

    def test_oversized_frame_header_tears_the_stream(self):
        listener = listen()
        raw = socket.create_connection((listener.host, listener.port))
        server = listener.accept(timeout=5.0)
        listener.close()
        try:
            raw.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
            with pytest.raises(OSError, match="desynchronized"):
                server.recv()
        finally:
            raw.close()
            server.close()

    def test_a_small_frame_is_one_send_and_one_recv_syscall(self):
        # The per-message path of cluster_small: a 64 B region rides
        # in-band — no attachment word, no second buffer to receive into.
        client, server = tcp_pair()
        try:
            sends, reads = _count_syscalls(client), _count_syscalls(server)
            blob = wire.dumps_parts((bytes, (bytes(64),), {}))
            client.send(wire.TaskMsg(1, "r", None, blob, False))
            msg = server.recv()
            assert sends == {"sendmsg": 1} and reads == {"recv": 1}
            assert type(msg.blob) is bytes and wire.loads(msg.blob)[1] == (bytes(64),)
            server.send(wire.PongMsg(1, 2))
            assert client.poll(5.0) and client.recv().pid == 2
        finally:
            client.close()
            server.close()

    def test_a_large_blob_rides_beside_the_envelope_into_one_buffer(self):
        client, server = tcp_pair()
        try:
            sends, reads = _count_syscalls(client), _count_syscalls(server)
            payload = os.urandom(1 << 20)
            blob = wire.dumps_parts(payload)
            client.send(wire.TaskMsg(7, "r", None, blob, False))
            msg = server.recv()
            assert type(msg.blob) is memoryview and len(msg.blob) == blob.nbytes
            assert isinstance(msg.blob.obj, bytearray), "received in place"
            assert msg.seq == 7 and wire.loads(msg.blob) == payload
            assert set(sends) == {"sendmsg"} and "recv_into" in reads
        finally:
            client.close()
            server.close()

    def test_an_oversize_message_is_refused_before_a_byte_is_sent(self):
        client, server = tcp_pair()
        try:
            sends = _count_syscalls(client)
            blob = wire.dumps_parts(bytes(MAX_FRAME_BYTES))
            with pytest.raises(SerializationError, match="MAX_FRAME_BYTES"):
                client.send(wire.TaskMsg(1, "r", None, blob, False))
            with pytest.raises(SerializationError, match=f"at most MAX_FRAME_BYTES={MAX_FRAME_BYTES}"):
                client.send(bytes(MAX_FRAME_BYTES))  # a bare object, plus its pickle framing
            assert not sends
            client.send("still in step")
            assert server.recv() == "still in step"
        finally:
            client.close()
            server.close()

    def test_satisfies_transport_protocol(self):
        from repro.cluster.transport import Transport

        client, server = tcp_pair()
        try:
            assert isinstance(client, Transport)
            a, _ = loopback_pair()
            assert isinstance(a, Transport)
        finally:
            client.close()
            server.close()


def _count_syscalls(transport: TcpTransport) -> dict[str, int]:
    """Route *transport*'s socket through a proxy that counts the calls
    that reach the kernel's send and receive paths."""
    counts: dict[str, int] = {}

    class Counting:
        def __init__(self, sock):
            self._sock = sock

        def __getattr__(self, name):
            attr = getattr(self._sock, name)
            if name not in ("send", "sendall", "sendmsg", "recv", "recv_into"):
                return attr

            def counted(*args):
                counts[name] = counts.get(name, 0) + 1
                return attr(*args)

            return counted

    transport._sock = Counting(transport._sock)
    return counts


class TestParseEndpoint:
    def test_string_and_tuple(self):
        assert parse_endpoint("10.0.0.1:9999") == ("10.0.0.1", 9999)
        assert parse_endpoint(("host", 80)) == ("host", 80)

    @pytest.mark.parametrize("bad", ["nohost", ":80", "host:", "host:abc"])
    def test_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_endpoint(bad)


class TestHello:
    def test_handshake_carries_version_role_and_identity(self):
        a, b = loopback_pair()
        send_hello(a, "task", target_name="cw", slot=3)
        hello = expect_hello(b)
        assert hello.version == wire.PROTOCOL_VERSION
        assert hello.role == "task"
        assert hello.target_name == "cw"
        assert hello.slot == 3
        assert hello.meta["pid"] > 0

    def test_version_mismatch_is_a_structured_error(self):
        a, b = loopback_pair()
        a.send(wire.HelloMsg(999, "task", "cw", 0, {}))
        with pytest.raises(ProtocolVersionError) as exc_info:
            expect_hello(b, peer="them")
        err = exc_info.value
        assert err.ours == wire.PROTOCOL_VERSION
        assert err.theirs == 999
        assert "them" in str(err)

    def test_non_hello_first_frame_is_rejected(self):
        a, b = loopback_pair()
        a.send(wire.PingMsg(1))
        with pytest.raises(RuntimeStateError, match="instead of"):
            expect_hello(b)

    def test_silent_peer_times_out(self):
        _a, b = loopback_pair()
        with pytest.raises(RuntimeStateError, match="no hello"):
            expect_hello(b, timeout=0.05)
