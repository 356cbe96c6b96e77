"""Shared-memory data plane of pipe lanes.

A ``multiprocessing`` pipe is a socket pair with a buffer of some 200 KiB:
a 1 MiB payload is pickled into the message, pushed through in as many
refills as it takes, a context switch each, and reassembled on the far
side, every step into a fresh megabyte.  :class:`ArenaChannel` wraps a lane's task pipe so that a
large serialized payload — the :class:`~repro.dist.wire.Parts` in a
message's ``blob`` — is instead written once into a shared-memory
:class:`Arena` and read once out of it by the receiver's
:func:`~repro.dist.wire.loads`; the pipe carries the small envelope with
the arena's ``(segment, nbytes)`` in the blob's place.  Both ends of the
pipe run this one class (``owner=True`` in the parent), sending
:func:`~repro.dist.wire.dumps_msg` bytes: ``Connection.send`` would copy
copyreg's dispatch table into a new ``ForkingPickler`` per message.

Ownership: the **parent end creates, grows and unlinks both arenas** of a
lane, one per direction; the worker end only attaches — a bare
``shm_open`` + ``mmap`` that no resource tracker hears of.  A worker that
is terminated or ``kill -9``-ed therefore cannot leak a segment, and every
path that reaps a lane — graceful stop, crash, hard shutdown, restart
budget spent — ends in :meth:`ArenaChannel.close`, which unlinks them.
The worker learns where to put results from an
:class:`~repro.dist.wire.ArenaOffer`; a result that does not fit what it
was offered comes back in-band once, and the parent answers with a bigger
offer before the next task.

Sizing: an arena is created on the first attachment (a payload of at least
:data:`~repro.dist.wire.ATTACH_MIN_BYTES`) in its direction, sized to the
next power of two, replaced by a larger one on demand and kept for the
lane's lifetime; a payload above :data:`ARENA_MAX_BYTES` crosses in-band, so a lane never
holds more than ``2 * ARENA_MAX_BYTES`` of shared memory and holds none
until it has moved a large payload.  One region is in flight per lane and
the task channel strictly alternates task and result, so **one attachment
per direction per lane** is all an arena ever holds — see
:class:`~repro.dist.remote_target.RemoteLane`.

Any failure to create or reserve a segment (no ``/dev/shm``, or a full
one) selects the in-band path for that payload: slower, never wrong.
"""

from __future__ import annotations

import atexit
import logging
import os
import threading
import weakref
from typing import Any

from . import wire

__all__ = [
    "ARENA_MAX_BYTES",
    "SEGMENT_PREFIX",
    "Arena",
    "ArenaChannel",
]

_logger = logging.getLogger(__name__)

#: Largest payload an arena is grown for; above it the payload goes
#: in-band.  Bounds a lane's resident shared memory at twice this.
ARENA_MAX_BYTES = 256 * 1024 * 1024

#: Every segment is named ``<prefix><creator pid>-<random>``, so a leak
#: check can tell this runtime's segments from anyone else's.
SEGMENT_PREFIX = "repro-"


def _release(lent: list, steps: tuple) -> None:
    while lent:
        lent.pop().release()
    for step in steps:
        step()


#: Held around creating and releasing an arena, so a daemon frozen at exit
#: never splits a segment from its tracker entry: an exit hook keeps it, and
#: the main thread (re-entering) releases every arena left.
_STEPS = threading.RLock()
if hasattr(os, "register_at_fork"):  # a forked worker must not inherit it held
    os.register_at_fork(after_in_child=_STEPS._at_fork_reinit)


class Arena:
    """One mapped shared-memory segment, created (owned) or attached, and
    the one view at a time lent out of it."""

    __slots__ = ("name", "size", "_buf", "_lent", "_finalizer", "__weakref__")

    def __init__(self, name: str, buf: memoryview, *undo: Any) -> None:
        self.name = name
        self.size = len(buf)
        self._buf = buf
        self._lent: list[memoryview] = []
        # Runs once: from release(), or at interpreter exit for an arena
        # whose lane was never reaped (a daemon shipper cut short by
        # ``shutdown(wait=False)``).
        self._finalizer = weakref.finalize(self, _release, self._lent, undo)
        atexit.unregister(_STEPS.acquire)  # last registered runs first: before
        atexit.register(_STEPS.acquire)    # the finalizers' own exit hook

    def release(self) -> None:
        """Take back the lent view, then undo the mapping (and the name)."""
        with _STEPS:
            self._finalizer()

    @classmethod
    def create(cls, nbytes: int) -> "Arena":
        """A new segment of at least *nbytes* (next power of two), with its
        pages reserved; ``OSError`` when the host cannot provide one."""
        if os.name != "posix":  # attach() below is POSIX shm_open + mmap
            raise OSError("shared-memory arenas need POSIX shared memory")
        from multiprocessing import shared_memory

        size = 1 << (nbytes - 1).bit_length()
        name = f"{SEGMENT_PREFIX}{os.getpid()}-{os.urandom(4).hex()}"
        with _STEPS:
            shm = shared_memory.SharedMemory(name=name, create=True, size=size)
            try:
                # ftruncate on tmpfs reserves nothing: without this a full
                # /dev/shm is a SIGBUS at the first write, not an error here.
                fd = getattr(shm, "_fd", -1)
                if fd >= 0 and hasattr(os, "posix_fallocate"):
                    os.posix_fallocate(fd, 0, size)
            except OSError:
                shm.unlink()
                shm.close()
                raise
            return cls(shm.name, shm.buf, shm.unlink, shm.close)

    @classmethod
    def attach(cls, name: str) -> "Arena":
        """Map a segment another process created, and will unlink.

        Not through ``SharedMemory(name)``: before Python 3.13 that
        registers the segment with the *attaching* process's resource
        tracker as if it were the owner, and a worker's tracker would
        unlink the parent's arena, with a warning, when the worker exits.
        This is what that constructor does, minus the registration (and
        minus importing its module in every worker).
        """
        import _posixshmem
        import mmap

        fd = _posixshmem.shm_open("/" + name, os.O_RDWR, mode=0o600)
        try:
            mapping = mmap.mmap(fd, os.fstat(fd).st_size)
        finally:
            os.close(fd)
        buf = memoryview(mapping)
        return cls(name, buf, buf.release, mapping.close)

    def write(self, parts: wire.Parts) -> None:
        """Lay *parts* end to end from offset 0 — the sending end's one copy."""
        buf, at = self._buf, 0
        for part in parts:
            end = at + len(part)
            buf[at:end] = part
            at = end

    def lend(self, nbytes: int) -> memoryview:
        """The first *nbytes*, until :meth:`reclaim`."""
        view = self._buf[:nbytes]
        self._lent.append(view)
        return view

    def reclaim(self) -> None:
        """Release what :meth:`lend` gave out: whoever still holds it gets
        ``ValueError``, never the next payload's bytes."""
        while self._lent:
            self._lent.pop().release()


class ArenaChannel:
    """A pipe lane's task channel: a ``Connection`` whose large blobs cross
    in shared memory.  ``send``/``recv``/``poll``/``close`` as the
    connection's; a ``memoryview`` found in a received message's ``blob``
    is valid until the next ``send`` or ``recv`` on this end."""

    def __init__(self, conn: Any, *, owner: bool, label: str) -> None:
        self._conn = conn
        self._put, self._get = conn.send_bytes, conn.recv_bytes
        self._owner = owner
        self._label = label
        self._out: Arena | None = None   # this end writes, the peer reads
        self._in: Arena | None = None    # the peer writes, this end reads
        self._offer: str | None = None   # owner: _in's name, not yet sent
        self._warned = False

    # ---------------------------------------------------------------- arenas

    def _grown(self, old: Arena | None, nbytes: int) -> Arena | None:
        """Owner: a new arena that holds *nbytes*, in place of *old* — or
        *old* itself (None if there was none) when the host will not give
        one, so the peer's mapping of it stays good."""
        try:
            new = Arena.create(nbytes)
        except OSError as exc:
            if not self._warned:
                self._warned = True
                _logger.warning(
                    "%s: no shared memory for a %d-byte payload (%r); large "
                    "payloads go through the pipe while that lasts",
                    self._label, nbytes, exc,
                )
            return old
        if old is not None:
            old.release()
        return new

    def _attach(self, old: Arena | None, segment: str) -> Arena:
        if old is not None:
            old.release()
        return Arena.attach(segment)

    # --------------------------------------------------------------- channel

    def send(self, msg: Any) -> None:
        if self._in is not None:
            self._in.reclaim()
        blob = msg.blob
        if type(blob) is wire.Parts:
            nbytes = blob.nbytes
            out = self._out
            if self._owner and nbytes <= ARENA_MAX_BYTES and (
                out is None or out.size < nbytes
            ):
                out = self._out = self._grown(out, nbytes)
            if out is not None and out.size >= nbytes:
                out.write(blob)
                blob = (out.name, nbytes)
        if self._offer is not None:
            offer, self._offer = self._offer, None
            self._put(wire.dumps_msg(wire.ArenaOffer(offer), None))
        self._put(wire.dumps_msg(msg, blob))

    def recv(self) -> Any:
        if self._in is not None:
            self._in.reclaim()
        msg = wire.load_frame(self._get(), None)
        while type(msg) is wire.ArenaOffer and not self._owner:
            try:
                self._out = self._attach(self._out, msg.segment)
            except OSError as exc:
                self._out = None  # results stay in-band; the parent copes
                _logger.warning("%s: cannot attach %s: %r", self._label, msg.segment, exc)
            msg = wire.load_frame(self._get(), None)
        blob = msg.blob
        if type(blob) is tuple:  # (segment, nbytes): the blob is in an arena
            if len(blob) != 2 or type(blob[0]) is not str or type(blob[1]) is not int:
                raise OSError(
                    f"{self._label}: malformed arena stand-in {blob!r}; "
                    "stream desynchronized"
                )
            segment, nbytes = blob
            arena = self._in
            if arena is None or arena.name != segment:
                if self._owner:
                    raise OSError(f"{self._label}: peer wrote to unknown segment {segment}")
                arena = self._in = self._attach(arena, segment)
            if not 0 <= nbytes <= arena.size:
                raise OSError(
                    f"{self._label}: {nbytes} bytes claimed in a {arena.size}-byte "
                    "arena; stream desynchronized"
                )
            msg.blob = arena.lend(nbytes)
        elif (
            self._owner and type(blob) is bytes
            and wire.ATTACH_MIN_BYTES <= len(blob) <= ARENA_MAX_BYTES
            and (self._in is None or self._in.size < len(blob))
        ):
            # A large result came through the pipe because it did not fit
            # what the worker was offered: offer more before the next task.
            grown = self._grown(self._in, len(blob))
            if grown is not self._in:
                self._in, self._offer = grown, grown.name
        return msg

    def poll(self, timeout: float = 0.0) -> bool:
        return self._conn.poll(timeout)

    def close(self) -> None:
        for arena in (self._out, self._in):
            if arena is not None:
                arena.release()
        self._out = self._in = None
        self._conn.close()
