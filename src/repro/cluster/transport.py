"""Framed, versioned message transports for cluster targets.

``repro.dist`` ships messages over ``multiprocessing.Pipe`` connections; a
cluster target ships the *same* messages (:mod:`repro.dist.wire`) to worker
agents on other hosts.  This module defines the transport abstraction both
ride on, and the two concrete implementations the cluster layer uses:

* :class:`Transport` — the structural interface: ``send(msg)`` /
  ``recv()`` / ``poll(timeout)`` / ``close()`` plus the liveness flags
  ``closed`` and ``eof``.  It is deliberately the subset of
  ``multiprocessing.Connection`` the dist machinery already consumes, so
  the shipper's heartbeat/reconnect/restart logic generalises over pipes,
  loopback pairs and sockets without caring which it holds.
* :class:`LoopbackTransport` — an in-process pair
  (:func:`loopback_pair`) backed by deques and condition variables.
  Messages still cross as the frames a socket would carry, so tests
  exercise the real codec without opening sockets.
* :class:`TcpTransport` — a TCP socket carrying length-prefixed frames
  (layout below): the message's envelope, then the serialized payload the
  message carries, beside it rather than inside it.  ``TCP_NODELAY`` is
  set (one small frame per dispatch hop; Nagle would serialize the
  protocol's ping-pongs at 40 ms each).

Frame layout (since protocol version 2; versions 3 and 4 changed only
what the envelope holds), integers unsigned 32-bit big-endian::

    [ A<<31 | size ]  [ attachment ]?  envelope ...  attachment ...
         word 1        word 2 iff A    size - attachment   attachment

``size`` counts envelope plus attachment and is at most
:data:`MAX_FRAME_BYTES`.  The envelope is the pickled tuple ``(code,
*fields)`` of the message, with None for a ``blob`` that travels as the
attachment (:func:`repro.dist.wire.dump_frame`); the attachment is the
blob's pickle stream, sent from the caller's own buffers by one
``sendmsg`` and received by ``recv_into`` one pre-sized buffer, which the
receiver's :func:`repro.dist.wire.loads` reads in place.  Only the hello
is a pickled :class:`~repro.dist.wire.HelloMsg`, in a frame with ``A``
clear: byte-for-byte a version-1 frame, so a peer of any earlier version
can read a current hello (and the reverse) and fail on the number in it.

Failure mapping mirrors pipes so existing error handling transfers: a send
on a closed/torn transport raises :class:`OSError`, a recv past the peer's
close raises :class:`EOFError`, and ``poll`` returns True when a recv
would not block (including when it would raise ``EOFError`` — the caller
finds the tear immediately instead of sleeping on a corpse).

Every cluster connection opens with a version handshake: both ends send a
:class:`~repro.dist.wire.HelloMsg` carrying
:data:`~repro.dist.wire.PROTOCOL_VERSION` and validate the peer's with
:func:`~repro.dist.wire.check_protocol_version`, so a client and a worker
agent started from different checkouts fail with a structured
:class:`~repro.core.errors.ProtocolVersionError` instead of misparsing
frames (:func:`send_hello` / :func:`expect_hello`).
"""

from __future__ import annotations

import collections
import os
import select
import socket
import struct
import threading
import time
from typing import Any, Protocol, runtime_checkable

from ..core.errors import RuntimeStateError, SerializationError
from ..dist import wire

__all__ = [
    "Transport",
    "LoopbackTransport",
    "TcpTransport",
    "TransportListener",
    "loopback_pair",
    "connect",
    "listen",
    "send_hello",
    "expect_hello",
    "parse_endpoint",
]

#: One header word, and both words of a frame that carries an attachment.
_WORD = struct.Struct(">I")
_WORDS = struct.Struct(">II")
#: Bit 31 of word 1: an attachment-length word follows.
_ATTACHED = 1 << 31

#: Upper bound on a single frame, envelope plus attachment (64 MiB).  A
#: sender refuses a larger message with ``SerializationError`` before any
#: byte is written; a header above it means the stream desynchronized (or
#: a hostile peer), and tearing the connection beats allocating garbage.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Size of the buffered read that collects headers and small frames.  A
#: frame this large cannot arrive in one such read anyway, so its body is
#: received straight into a buffer of its announced size instead.
_READ_BYTES = 1 << 16

#: Most buffers handed to one ``sendmsg`` (``IOV_MAX`` on Linux and the
#: BSDs); a payload holding more large buffers goes out in several calls.
_IOV_MAX = 1024

#: Budget for the peer's half of the hello handshake.
HELLO_TIMEOUT = 10.0


@runtime_checkable
class Transport(Protocol):
    """Structural interface of one message channel end.

    ``multiprocessing.Connection`` satisfies ``send``/``recv``/``poll``/
    ``close`` natively — this protocol just names the contract the dist
    machinery consumes, so pipe, loopback and TCP ends interchange.
    """

    def send(self, msg: Any) -> None: ...  # OSError when closed/torn

    def recv(self) -> Any: ...             # EOFError past the peer's close

    def poll(self, timeout: float = 0.0) -> bool: ...

    def close(self) -> None: ...

    @property
    def closed(self) -> bool: ...          # this end was close()d

    @property
    def eof(self) -> bool: ...             # the peer's end is known gone


# ------------------------------------------------------------------ loopback


class _LoopbackChannel:
    """One direction of a loopback pair: bounded only by memory."""

    def __init__(self) -> None:
        self.cond = threading.Condition()
        self.items: collections.deque[tuple] = collections.deque()
        self.closed = False

    def put(self, frame: tuple) -> None:
        with self.cond:
            if self.closed:
                raise OSError("loopback transport is closed")
            self.items.append(frame)
            self.cond.notify_all()

    def close(self) -> None:
        with self.cond:
            self.closed = True
            self.cond.notify_all()


class LoopbackTransport:
    """In-process :class:`Transport` end; create pairs with
    :func:`loopback_pair`.

    Messages are encoded and decoded as TCP frames are — the full
    serialization constraint of the real wire, minus the socket — so a
    payload that cannot cross a TCP transport cannot sneak through tests.
    """

    def __init__(self, tx: _LoopbackChannel, rx: _LoopbackChannel, label: str) -> None:
        self._tx = tx
        self._rx = rx
        self._label = label
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def eof(self) -> bool:
        with self._rx.cond:
            return self._rx.closed and not self._rx.items

    def send(self, msg: Any) -> None:
        if self._closed:
            raise OSError("transport is closed")
        body, attached = wire.dump_frame(msg)
        self._tx.put((b"".join(body), attached))

    def recv(self) -> Any:
        with self._rx.cond:
            while not self._rx.items:
                if self._rx.closed or self._closed:
                    raise EOFError("loopback peer closed")
                self._rx.cond.wait()
            frame = self._rx.items.popleft()
        return _load_frame(*frame)

    def poll(self, timeout: float = 0.0) -> bool:
        with self._rx.cond:
            if self._rx.items or self._rx.closed or self._closed:
                return True
            if timeout <= 0:
                return False
            self._rx.cond.wait(timeout)
            return bool(self._rx.items) or self._rx.closed or self._closed

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        # Close both directions: the peer's recv drains then EOFs, and its
        # sends fail fast instead of queueing into the void.
        self._tx.close()
        self._rx.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<LoopbackTransport {self._label} closed={self._closed}>"


def loopback_pair() -> tuple[LoopbackTransport, LoopbackTransport]:
    """Two connected in-process transport ends (client-ish, server-ish)."""
    a2b = _LoopbackChannel()
    b2a = _LoopbackChannel()
    return (
        LoopbackTransport(a2b, b2a, "a"),
        LoopbackTransport(b2a, a2b, "b"),
    )


def _load_frame(body: Any, attached: int | None) -> Any:
    """The message in a frame *body* ending in an *attached*-byte attachment."""
    if attached is None:
        return wire.load_frame(body, None)
    view, split = memoryview(body), len(body) - attached
    return wire.load_frame(view[:split], view[split:])


# ----------------------------------------------------------------------- TCP


def _send_all(sock: socket.socket, buffers: list, size: int) -> None:
    """``sendall`` of the *size* bytes in a buffer list: one ``sendmsg``
    unless the kernel takes less than everything (or the list outgrows an
    iovec), then more from wherever the last one stopped."""
    sent = sock.sendmsg(buffers) if len(buffers) <= _IOV_MAX else 0
    if sent == size:
        return
    i = 0
    while True:
        while i < len(buffers) and sent >= len(buffers[i]):
            sent -= len(buffers[i])
            i += 1
        if i == len(buffers):
            return
        if sent:
            buffers[i] = memoryview(buffers[i])[sent:]
        sent = sock.sendmsg(buffers[i:i + _IOV_MAX])


class TcpTransport:
    """A :class:`Transport` end over a connected TCP socket.

    Sends are serialized under a lock (frames must not interleave); recv
    and poll are intended for one consuming thread, matching how the dist
    machinery already partitions pipe ends (the lane's lease holder or one
    control loop per end).
    """

    def __init__(self, sock: socket.socket) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(True)
        self._sock: socket.socket | None = sock
        self._send_lock = threading.Lock()
        # Decoder state.  Bytes land in ``_buf`` until a header announces a
        # body of _READ_BYTES or more; that body is received into ``_body``
        # (``_got`` bytes so far).  ``_frame`` parks the next whole frame as
        # (body, attachment length or None) between poll() and recv().
        self._buf = bytearray()
        self._body: bytearray | None = None
        self._got = 0
        self._attached: int | None = None
        self._frame: tuple[bytearray, int | None] | None = None
        self._eof = False
        self._closed = False
        try:
            self._peer = "%s:%d" % sock.getpeername()[:2]
        except OSError:  # pragma: no cover - already torn
            self._peer = "?"

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def eof(self) -> bool:
        return self._eof

    @property
    def peer(self) -> str:
        """``host:port`` of the remote end (diagnostics)."""
        return self._peer

    # -------------------------------------------------------------- framing

    def send(self, msg: Any) -> None:
        sock = self._sock
        if sock is None:
            raise OSError("transport is closed")
        body, attached = wire.dump_frame(msg)
        size = len(body[0]) if len(body) == 1 else sum(map(len, body))
        if size > MAX_FRAME_BYTES:
            # The message's fault, not the connection's: nothing was
            # written, the stream stays in step and the lane stays up.
            raise SerializationError(
                f"message of {size} bytes for {self._peer}",
                ValueError(f"a frame holds at most MAX_FRAME_BYTES={MAX_FRAME_BYTES}"),
            )
        if attached is None:
            header = _WORD.pack(size)
        else:
            header = _WORDS.pack(_ATTACHED | size, attached)
        with self._send_lock:
            # One gather-send under the lock: a ping racing a cancel must
            # not interleave header and payload bytes on the stream.
            _send_all(sock, [header, *body], len(header) + size)

    def _frame_ready(self) -> bool:
        """Decode as far as the bytes read so far allow; True once a whole
        frame is parked in ``_frame``."""
        if self._frame is not None:
            return True
        if self._body is None:
            buf = self._buf
            start = _WORD.size
            if len(buf) < start:
                return False
            (word,) = _WORD.unpack_from(buf)
            size = word & ~_ATTACHED
            if size > MAX_FRAME_BYTES:
                raise OSError(
                    f"frame of {size} bytes from {self._peer} exceeds "
                    f"MAX_FRAME_BYTES={MAX_FRAME_BYTES}; stream desynchronized"
                )
            attached = None
            if word & _ATTACHED:
                start = _WORDS.size
                if len(buf) < start:
                    return False
                (attached,) = _WORD.unpack_from(buf, _WORD.size)
                if attached > size:
                    raise OSError(
                        f"frame of {size} bytes from {self._peer} announces "
                        f"a {attached}-byte attachment; stream desynchronized"
                    )
            end = start + size
            if size < _READ_BYTES:
                if len(buf) < end:
                    return False
                self._frame = (buf[start:end], attached)
                del buf[:end]
                return True
            end = min(end, len(buf))
            body = bytearray(size)
            body[:end - start] = buf[start:end]
            del buf[:end]
            self._body, self._got, self._attached = body, end - start, attached
        if self._got < len(self._body):
            return False
        self._frame, self._body = (self._body, self._attached), None
        return True

    def _read(self, sock: socket.socket, flags: int = 0) -> bool:
        """One read from the socket to where the decoder wants the bytes;
        False at end of stream."""
        if self._body is not None:
            got = sock.recv_into(memoryview(self._body)[self._got:], 0, flags)
            self._got += got
        else:
            chunk = sock.recv(_READ_BYTES)
            got = len(chunk)
            self._buf += chunk
        if not got:
            self._eof = True
        return bool(got)

    def recv(self) -> Any:
        while not self._frame_ready():
            sock = self._sock
            if sock is None:
                raise EOFError("transport is closed")
            # Blocking is the point here, so a large body may as well be
            # one syscall: MSG_WAITALL returns short only on a tear.
            if self._eof or not self._read(sock, socket.MSG_WAITALL):
                raise EOFError(f"peer {self._peer} closed the connection")
        frame, self._frame = self._frame, None
        return _load_frame(*frame)

    def poll(self, timeout: float = 0.0) -> bool:
        """True when :meth:`recv` would not block (data *or* a tear)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if self._frame_ready() or self._eof:
                return True
            sock = self._sock
            if sock is None:
                return True  # recv() raises EOFError immediately
            # Clamped, not bailed out on: an expired deadline (always the
            # case for poll(0)) still gets one zero-timeout look at the
            # socket, or a frame or tear already in the kernel buffer would
            # never be seen.
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            try:
                readable, _, _ = select.select([sock], [], [], remaining)
            except (OSError, ValueError):
                # Socket closed under us (lane reclaim): recv() will EOF.
                self._eof = True
                return True
            if not readable:
                return False
            try:
                if not self._read(sock):
                    return True
            except (OSError, ValueError):
                self._eof = True
                return True

    def close(self) -> None:
        sock, self._sock = self._sock, None
        self._closed = True
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:  # pragma: no cover - double close
                pass

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<TcpTransport peer={self._peer} closed={self._closed}>"


class TransportListener:
    """A listening TCP socket that accepts :class:`TcpTransport` ends."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(64)
        self.host = host
        self.port = self._sock.getsockname()[1]
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def accept(self, timeout: float | None = None) -> TcpTransport | None:
        """Accept one connection; None on timeout, OSError once closed."""
        if self._closed:
            raise OSError("listener is closed")
        self._sock.settimeout(timeout)
        try:
            conn, _addr = self._sock.accept()
        except socket.timeout:
            return None
        except OSError:
            if self._closed:
                raise OSError("listener is closed") from None
            raise
        return TcpTransport(conn)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.close()
        except OSError:  # pragma: no cover
            pass


def listen(host: str = "127.0.0.1", port: int = 0) -> TransportListener:
    """Open a listener; ``port=0`` lets the OS pick (tests, CI)."""
    return TransportListener(host, port)


def connect(host: str, port: int, *, timeout: float = 10.0) -> TcpTransport:
    """Connect to a cluster worker agent; raises OSError on refusal."""
    sock = socket.create_connection((host, port), timeout=timeout)
    sock.settimeout(None)
    return TcpTransport(sock)


def parse_endpoint(spec: "str | tuple[str, int]") -> tuple[str, int]:
    """``"host:port"`` (or an already-split tuple) → ``(host, port)``."""
    if isinstance(spec, tuple):
        host, port = spec
        return str(host), int(port)
    host, sep, port_text = spec.rpartition(":")
    if not sep or not host:
        raise ValueError(f"endpoint {spec!r} is not of the form host:port")
    try:
        return host, int(port_text)
    except ValueError:
        raise ValueError(f"endpoint {spec!r} has a non-numeric port") from None


# ------------------------------------------------------------ version hello


def send_hello(
    transport: Transport,
    role: str,
    *,
    target_name: str = "",
    slot: int = -1,
    meta: dict | None = None,
) -> None:
    """Send this end's versioned hello (first frame on the connection)."""
    payload = {"pid": os.getpid()}
    if meta:
        payload.update(meta)
    transport.send(
        wire.HelloMsg(wire.PROTOCOL_VERSION, role, target_name, slot, payload)
    )


def expect_hello(
    transport: Transport,
    *,
    timeout: float = HELLO_TIMEOUT,
    peer: str | None = None,
) -> wire.HelloMsg:
    """Read and validate the peer's hello; the version gate of the protocol.

    Raises :class:`~repro.core.errors.ProtocolVersionError` on a version
    mismatch and :class:`~repro.core.errors.RuntimeStateError` when the
    peer sent something other than a hello (or nothing within *timeout*) —
    both are structured verdicts, never a misparse further in.
    """
    if not transport.poll(timeout):
        raise RuntimeStateError(
            f"peer {peer or '?'} sent no hello within {timeout}s"
        )
    msg = transport.recv()
    if not isinstance(msg, wire.HelloMsg):
        raise RuntimeStateError(
            f"peer {peer or '?'} opened with {type(msg).__name__} instead of "
            "the hello frame; not a repro cluster endpoint?"
        )
    wire.check_protocol_version(msg.version, peer=peer)
    return msg
