"""Hypothesis at the byte boundary of the frame and envelope decoders.

`TcpTransport.recv`/`poll` are driven from a scripted socket that delivers
a stream of valid frames — attachments sized around zero, around the
in-band/attached switch and at 64 KiB multiples — cut at arbitrary chunk
boundaries, coalesced, truncated anywhere, or followed by a header that is
oversized or inconsistent, or by a whole frame whose envelope decodes to no
message.  Every case must end in the messages that were sent, `EOFError`,
or the documented desynchronization `OSError`; never a partial object,
never another exception type, and (the socket never blocks, so a hang
would be a spin) never a hang.
"""

from __future__ import annotations

import os
import pickle
import select
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import transport as transport_mod
from repro.cluster.transport import MAX_FRAME_BYTES, TcpTransport, expect_hello
from repro.core.errors import ProtocolVersionError
from repro.dist import wire

K = wire.ATTACH_MIN_BYTES


class _Capture:
    """Socket stand-in that keeps what a transport sends."""

    def __init__(self):
        self.stream = bytearray()

    def sendmsg(self, buffers):
        before = len(self.stream)
        for buf in buffers:
            self.stream += buf
        return len(self.stream) - before

    def setsockopt(self, *args): pass
    def setblocking(self, flag): pass
    def getpeername(self): return ("fuzz", 0)


class _Script(_Capture):
    """Socket stand-in that plays *stream* back in chunks of *cuts* bytes
    (the last cut repeats), then reports end of stream.  Its descriptor is
    a pipe with a byte in it: always readable, so ``poll`` always reads."""

    def __init__(self, stream: bytes, cuts: list[int]):
        self.stream, self.at = bytes(stream), 0
        self.cuts, self.turn = cuts, 0
        self.r, self.w = os.pipe()
        os.write(self.w, b"!")

    def fileno(self):
        return self.r

    def _take(self, room: int) -> bytes:
        cut = self.cuts[min(self.turn, len(self.cuts) - 1)]
        self.turn += 1
        chunk = self.stream[self.at:self.at + min(room, cut)]
        self.at += len(chunk)
        return chunk

    def recv(self, n, flags=0):
        return self._take(n)

    def recv_into(self, view, nbytes=0, flags=0):
        chunk = self._take(nbytes or len(view))
        view[:len(chunk)] = chunk
        return len(chunk)

    def done(self):
        os.close(self.r)
        os.close(self.w)


def encode(messages) -> tuple[bytes, list[int]]:
    """The wire bytes of *messages* and the offset at which each ends."""
    capture = _Capture()
    tx = TcpTransport(capture)
    ends = []
    for msg in messages:
        tx.send(msg)
        ends.append(len(capture.stream))
    return bytes(capture.stream), ends


def plain(msg):
    """A message as comparable data, its blob deserialized."""
    if isinstance(msg, wire.TaskMsg):
        blob = b"".join(msg.blob) if type(msg.blob) is wire.Parts else msg.blob
        return ("task", msg.seq, msg.name, wire.loads(blob))
    if isinstance(msg, wire.PingMsg):
        return ("ping", msg.sent_ns)
    return msg


def drain(stream, cuts, polls):
    """Everything a transport makes of *stream*: the messages it decodes,
    then the exception that ends it."""
    sock = _Script(stream, cuts)
    rx = TcpTransport(sock)
    got = []
    try:
        for turn in range(len(stream) + 2):  # far more turns than frames
            if polls[turn % len(polls)]:
                assert rx.poll(0) is True  # data or a tear: never "would block"
            got.append(plain(rx.recv()))
        raise AssertionError("decoded more frames than bytes")  # pragma: no cover
    except (EOFError, OSError) as exc:
        return got, exc
    finally:
        sock.done()


sizes = st.one_of(
    st.integers(0, 64),
    st.integers(K - 200, K + 200),
    st.sampled_from([2 * K, 3 * K, 4 * K]).flatmap(lambda n: st.integers(n - 64, n + 64)),
)


@st.composite
def messages(draw):
    kind = draw(st.sampled_from(["ping", "task", "bare"]))
    if kind == "ping":
        return wire.PingMsg(draw(st.integers(0, 2**62)))
    payload = bytes([draw(st.integers(0, 255))]) * draw(sizes)
    if kind == "bare":
        return payload
    return wire.TaskMsg(
        draw(st.integers(0, 2**31)), draw(st.text(max_size=8)), None,
        wire.dumps_parts(payload), False,
    )


cuts = st.lists(st.integers(1, 3 * K), min_size=1, max_size=12)
polls = st.lists(st.booleans(), min_size=1, max_size=5)
fuzz = settings(
    max_examples=120, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@fuzz
@given(st.lists(messages(), min_size=1, max_size=5), cuts, polls)
def test_any_chunking_yields_the_sequence_that_was_sent(msgs, cuts, polls):
    stream, _ = encode(msgs)
    got, end = drain(stream, cuts, polls)
    assert got == [plain(m) for m in msgs]
    assert isinstance(end, EOFError)


@fuzz
@given(st.lists(messages(), min_size=1, max_size=4), cuts, polls, st.data())
def test_a_truncated_stream_yields_whole_frames_then_eof(msgs, cuts, polls, data):
    stream, ends = encode(msgs)
    keep = data.draw(st.integers(0, len(stream) - 1))  # mid-header/envelope/attachment
    got, end = drain(stream[:keep], cuts, polls)
    whole = sum(1 for e in ends if e <= keep)
    assert got == [plain(m) for m in msgs[:whole]], "a partial frame was delivered"
    assert isinstance(end, EOFError)


bad_headers = st.one_of(
    # Oversized, with or without the attachment flag.
    st.integers(MAX_FRAME_BYTES + 1, 2**31 - 1).map(lambda n: struct.pack(">I", n)),
    st.integers(MAX_FRAME_BYTES + 1, 2**31 - 1).map(
        lambda n: struct.pack(">II", (1 << 31) | n, 0)
    ),
    # Inconsistent: an attachment longer than the frame that holds it.
    st.integers(0, MAX_FRAME_BYTES - 1).flatmap(
        lambda n: st.integers(n + 1, 2**32 - 1).map(
            lambda a: struct.pack(">II", (1 << 31) | n, a)
        )
    ),
)


@fuzz
@given(st.lists(messages(), max_size=3), bad_headers, cuts, polls)
def test_a_bad_length_after_good_frames_is_the_documented_oserror(msgs, header, cuts, polls):
    stream, _ = encode(msgs)
    got, end = drain(stream + header + b"\0" * 32, cuts, polls)
    assert got == [plain(m) for m in msgs]
    assert type(end) is OSError and "desynchronized" in str(end)


def framed(envelope: bytes, attachment: bytes | None = None) -> bytes:
    """One whole frame around raw *envelope* bytes, as a sender writes it."""
    if attachment is None:
        return struct.pack(">I", len(envelope)) + envelope
    size = len(envelope) + len(attachment)
    return struct.pack(">II", (1 << 31) | size, len(attachment)) + envelope + attachment


def _arity(code):
    kind = wire._KINDS[code]
    return len(kind.__slots__) if isinstance(kind, type) else 1


@st.composite
def wrong_arity(draw):
    """A known code with too few or too many fields."""
    code = draw(st.sampled_from(sorted(wire._KINDS)))
    n = draw(st.integers(0, 10).filter(lambda n: n != _arity(code)))
    return framed(pickle.dumps((code, *[None] * n)))


@st.composite
def truncated(draw):
    """A whole frame around pickle bytes cut short."""
    envelope = wire.dump_frame(draw(st.one_of(_blobless, messages())))[0][0]
    return framed(envelope[:draw(st.integers(0, len(envelope) - 1))])


_values = st.one_of(st.none(), st.integers(), st.text(max_size=4), st.binary(max_size=8))
_blobless = st.sampled_from([
    wire.PingMsg(1), wire.PongMsg(1, 2), wire.CancelMsg(3), wire.StopMsg(),
    wire.SyncMsg(4), wire.SyncAck(5, 6), wire.ArenaOffer("seg"),
    wire.HelloMsg(wire.PROTOCOL_VERSION, "task", "t", 0, {}), "a bare object",
])
malformed = st.one_of(
    # A tuple whose code no message has.
    st.builds(
        lambda code, rest: framed(pickle.dumps((code, *rest))),
        st.one_of(st.integers().filter(lambda c: c not in wire._KINDS),
                  st.text(max_size=3), st.none(), st.just(())),
        st.lists(_values, max_size=9),
    ),
    wrong_arity(),
    st.just(framed(pickle.dumps(()))),
    # Not a tuple, and not a hello: a version-3 message among them.
    st.one_of(
        st.integers(), st.text(max_size=4), st.lists(st.integers(), max_size=3),
        st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
        st.just(wire.PingMsg(1)), st.just(wire.TaskMsg(1, "r", None, b"x", False)),
    ).map(lambda obj: framed(pickle.dumps(obj))),
    # An attachment on a message without a blob field.
    st.builds(
        lambda msg, attachment: framed(wire.dump_frame(msg)[0][0], attachment),
        _blobless, st.binary(min_size=1, max_size=64),
    ),
    truncated(),
)


@fuzz
@given(st.lists(messages(), max_size=3), malformed, cuts, polls)
def test_an_envelope_that_decodes_to_no_message_is_the_documented_oserror(
    msgs, frame, cuts, polls,
):
    stream, _ = encode(msgs)
    got, end = drain(stream + frame + framed(pickle.dumps((wire.PingMsg.code, 9))), cuts, polls)
    assert got == [plain(m) for m in msgs]
    assert type(end) is OSError and "desynchronized" in str(end)


def test_a_version_3_hello_is_a_protocol_version_error():
    # A version-3 peer's hello, class-pickled and framed as every version
    # frames it: refused at the gate, before any envelope is decoded.
    hello = pickle.dumps(wire.HelloMsg(3, "task", "t", 0, {"pid": 1}), wire.PICKLE_PROTOCOL)
    sock = _Script(framed(hello), [1 << 16])
    try:
        with pytest.raises(ProtocolVersionError) as exc_info:
            expect_hello(TcpTransport(sock), timeout=1.0, peer="v3")
        assert (exc_info.value.ours, exc_info.value.theirs) == (wire.PROTOCOL_VERSION, 3)
    finally:
        sock.done()


@fuzz
@given(st.integers(0, 2**31).filter(lambda v: v != wire.PROTOCOL_VERSION), cuts)
def test_a_version_1_hello_is_a_protocol_version_error(version, cuts):
    # Byte for byte what a version-1 peer sends: one length word, then the
    # hello pickled at the interpreter's default protocol.
    hello = pickle.dumps(wire.HelloMsg(version, "task", "t", 0, {"pid": 1}))
    sock = _Script(struct.pack(">I", len(hello)) + hello, cuts)
    try:
        with pytest.raises(ProtocolVersionError) as exc_info:
            expect_hello(TcpTransport(sock), timeout=1.0, peer="old")
        assert exc_info.value.theirs == version
    finally:
        sock.done()


@fuzz
@given(
    st.lists(st.binary(max_size=40), max_size=60),
    st.lists(st.integers(1, 90), min_size=1, max_size=8),
    st.integers(1, 7),
)
def test_send_all_survives_partial_sends_and_short_iovecs(buffers, takes, iov_max):
    # A kernel that accepts any prefix of what it is offered, and an iovec
    # limit far below the buffer count: every byte still goes out once, in
    # order, and no call exceeds the limit.
    sent, turn = bytearray(), [0]

    class Stingy:
        def sendmsg(self, bufs):
            assert 0 < len(bufs) <= iov_max
            take = takes[min(turn[0], len(takes) - 1)]
            turn[0] += 1
            chunk = b"".join(bufs)[:take]
            sent.extend(chunk)
            return len(chunk)

    whole = b"".join(buffers)
    real, transport_mod._IOV_MAX = transport_mod._IOV_MAX, iov_max
    try:
        if buffers:
            transport_mod._send_all(Stingy(), [memoryview(b) for b in buffers], len(whole))
    finally:
        transport_mod._IOV_MAX = real
    assert bytes(sent) == whole


def test_a_version_2_hello_reads_under_the_version_1_framing():
    capture = _Capture()
    transport_mod.send_hello(TcpTransport(capture), "task", target_name="t", slot=3)
    (size,) = struct.unpack_from(">I", capture.stream)  # all a v1 peer parses
    assert size == len(capture.stream) - 4 < MAX_FRAME_BYTES
    hello = pickle.loads(bytes(capture.stream[4:]))
    assert isinstance(hello, wire.HelloMsg) and hello.version == wire.PROTOCOL_VERSION == 4


def test_poll_zero_is_one_zero_timeout_look(monkeypatch):
    looks = []
    real = select.select

    def counting(r, w, x, timeout=None):
        looks.append(timeout)
        return real(r, w, x, timeout)

    monkeypatch.setattr(transport_mod.select, "select", counting)
    stream, _ = encode([wire.PingMsg(7)])
    sock = _Script(stream[:5], [64])  # a header and one byte: no frame yet
    try:
        os.read(sock.r, 1)  # nothing to read: the descriptor is quiet
        rx = TcpTransport(sock)
        assert rx.poll(0) is False
        assert looks == [0.0]
    finally:
        sock.done()
