"""Wire format of process-backed virtual targets.

Everything that crosses the parent↔worker boundary is defined here, so the
protocol reads in one place:

* **Payload serialization** — :func:`dumps`/:func:`dumps_parts`/
  :func:`loads`.  Region bodies are arbitrary Python callables; the standard
  pickler refuses lambdas, closures and locally defined functions, so we
  prefer `cloudpickle <https://github.com/cloudpipe/cloudpickle>`_ when the
  interpreter ships it and fall back to plain :mod:`pickle` otherwise, both
  at :data:`PICKLE_PROTOCOL`, cloudpickle only where something must go by
  value (:class:`_ByReference`).  Failures are wrapped in
  :class:`~repro.core.errors.SerializationError` with guidance, never
  surfaced as a raw ``TypeError`` from pickler internals.
* **Messages** — small slotted classes, each but :class:`HelloMsg` sent
  as a flat tuple (:func:`load_frame`).  Two channels per worker:

  - the *task* channel (parent lease holder ↔ worker main thread):
    :class:`SyncMsg`/:class:`SyncAck` clock handshake at spawn, then
    :class:`TaskMsg` → :class:`ResultMsg` pairs — exactly one reply per
    task, on every lane kind — terminated by :class:`StopMsg`;
  - the *control* channel (the same lease holder → worker control
    thread): :class:`PingMsg` → :class:`PongMsg` heartbeats and
    :class:`CancelMsg` cooperative-cancellation requests, which must remain
    deliverable *while the worker's main thread is busy executing a region*
    — the reason control rides a separate pipe.

The payload of a task is the tuple ``(body, args, kwargs)``, serialized
eagerly in the parent (rather than letting ``Connection.send`` pickle
lazily), so an unpicklable payload is rejected at dispatch with a clear
error instead of killing the channel mid-protocol.  Results come back the
same way — the *worker* serializes eagerly so an unpicklable return value
becomes an error result, not a dead worker.

A large serialized payload is an **attachment that travels beside its
message**, not a pickle nested in the message's pickle.  Below
:data:`ATTACH_MIN_BYTES` :func:`dumps_parts` gives the sender one ``bytes``
for the message's ``blob`` field and everything is as it always was.  From
there up it gives :class:`Parts` — the buffers the pickler wrote, where
every ``bytes``/``bytearray``/contiguous array of 64 KiB or more is *the
caller's own object*, not a copy — and the channel decides how the parts
cross: a pipe lane writes them into a shared-memory arena and ships the
arena's ``(segment, nbytes)`` in their place (:mod:`repro.dist.arena`), a
TCP lane hands them to ``sendmsg`` after the pickled envelope
(:mod:`repro.cluster.transport`), and a channel that keeps them in the
envelope delivers them in-band as one ``bytes`` after all
(:meth:`Parts.__reduce__`).  The receiver finds ``bytes`` or a
``memoryview`` in ``blob`` and gives it to :func:`loads` — the one copy on
its end of the hop, into the final object.
"""

from __future__ import annotations

import pickle
import traceback
from types import FunctionType
from typing import Any, Union

from ..core.errors import ProtocolVersionError, RemoteExecutionError, SerializationError

try:  # cloudpickle widens what can cross the wire (lambdas, closures, ...)
    import cloudpickle
    HAVE_CLOUDPICKLE = True
except ImportError:  # pragma: no cover - environment-dependent
    HAVE_CLOUDPICKLE = False
    _Pickler = pickle.Pickler
else:
    _Pickler = cloudpickle.CloudPickler

__all__ = [
    "HAVE_CLOUDPICKLE",
    "PICKLE_PROTOCOL",
    "PROTOCOL_VERSION",
    "ProtocolVersionError",
    "check_protocol_version",
    "ATTACH_MIN_BYTES",
    "ArenaOffer",
    "Blob",
    "Parts",
    "dump_frame",
    "dumps",
    "dumps_msg",
    "dumps_parts",
    "load_frame",
    "loads",
    "pack_exception",
    "unpack_exception",
    "HelloMsg",
    "SyncMsg",
    "SyncAck",
    "TaskMsg",
    "ResultMsg",
    "StopMsg",
    "PingMsg",
    "PongMsg",
    "CancelMsg",
]

#: Version of the message protocol defined in this module.  Bumped whenever
#: a message gains/loses a field or changes meaning.  Pipe-backed process
#: targets never see a mismatch (parent and child share one checkout by
#: construction), but cluster workers are separate invocations — possibly of
#: a different checkout — so every socket connection opens with a
#: :class:`HelloMsg` carrying this number, and a mismatch raises a
#: structured :class:`ProtocolVersionError` instead of undefined behaviour
#: deep inside message dispatch.  Version 3 dropped the tagged task and its
#: second reply, so a v2 peer is refused at hello rather than left waiting
#: for it; version 4 sends all but the hello as flat tuples (:func:`load_frame`).
PROTOCOL_VERSION = 4

#: Pickle protocol of every payload and envelope.  Pinned, not "highest":
#: 5 is what makes the pickler hand a large buffer to its sink whole
#: (``bytearray`` and ``PickleBuffer`` need it; ``bytes`` since 4), and both
#: ends of a cluster connection must agree on it.
PICKLE_PROTOCOL = 5

#: Smallest serialized payload that travels beside its message; a smaller
#: one rides inside it, in-band, as payloads did before there were
#: attachments.  64 KiB is where the pickler starts handing buffers to
#: :class:`Parts` uncopied and where a TCP frame stops fitting one buffered
#: read, and it is the smallest size at which the shared-memory path of a
#: pipe lane is not the slower one.  Measured on the 2-core benchmark host
#: in a quiet spell, parent and worker pinned apart, p50 µs of 500 echoes
#: through one pipe channel (median of four alternating runs, ±10 µs from
#: run to run), in-band vs arena: 16 KiB 138 vs 140, 32 KiB 156 vs 163,
#: 48 KiB 183 vs 187, 64 KiB 178 vs 179, 96 KiB 198 vs 194, 128 KiB 230 vs
#: 208, 256 KiB 1190 vs 273, 1 MiB 3444 vs 855.  The in-band cliff past
#: 128 KiB is the pipe's socket buffer (an ``AF_UNIX`` pair, 208 KiB here):
#: a message that does not fit it costs a context switch per refill.  On
#: TCP, three small buffers in one ``sendmsg`` cost 1.3 µs more than one,
#: so a 64 B region is also cheapest in-band.
ATTACH_MIN_BYTES = 64 * 1024


def check_protocol_version(theirs: int, *, peer: str | None = None) -> None:
    """Raise :class:`ProtocolVersionError` unless *theirs* matches ours."""
    if theirs != PROTOCOL_VERSION:
        raise ProtocolVersionError(PROTOCOL_VERSION, theirs, peer=peer)


class Parts(list):
    """A large serialized object as the buffers its pickler wrote, in order.

    The concatenation of the parts is the pickle stream, of at least
    :data:`ATTACH_MIN_BYTES`.  A pickler flushes to its file whenever 64 KiB
    have accumulated and hands any ``bytes``/``bytearray`` of that size
    over unbuffered, so such a buffer is a part of its own and *is the
    object that was pickled* (a contiguous array arrives as a flat
    ``memoryview`` of its memory): a channel can move the payload without
    ever building the stream.  The parts must be sent, or written out,
    before their owner can mutate them.  ``len()`` of every part is its
    size in bytes.
    """

    __slots__ = ()

    write = list.append  # the pickler's file protocol, at C speed

    @property
    def nbytes(self) -> int:
        return sum(map(len, self))

    def __reduce__(self):
        # In-band after all: a channel that pickles the whole message (a
        # pipe lane without shared memory, a loopback pair) delivers the
        # plain ``bytes`` a small payload would have been.
        return (bytes, (b"".join(self),))


#: What a receiver finds in a message's ``blob`` field.
Blob = Union[bytes, memoryview]


try:  # cloudpickle's own by-reference test, for the C-speed path below
    from cloudpickle.cloudpickle import (
        _BUILTIN_TYPE_NAMES, _PICKLE_BY_VALUE_MODULES, _should_pickle_by_reference,
    )
    _CLOUD_REDUCED = _Pickler._dispatch_table
except (ImportError, AttributeError):  # pragma: no cover - another cloudpickle
    _ByReference = None
else:
    #: What cloudpickle pickles by reference: module attributes, never closures.
    _BY_REFERENCE: set = set()

    class _ByReference(pickle.Pickler):
        """The C pickler, raising wherever cloudpickle would do otherwise."""

        def reducer_override(self, obj: Any) -> Any:
            # CloudPickler.reducer_override's tests, in its order.
            if issubclass(type(obj), type) or isinstance(obj, FunctionType):
                if obj not in _BY_REFERENCE:
                    if obj in _BUILTIN_TYPE_NAMES or not _should_pickle_by_reference(obj):
                        raise pickle.PicklingError("pickled by value")
                    _BY_REFERENCE.add(obj)
            elif type(obj) in _CLOUD_REDUCED:
                raise pickle.PicklingError("reduced by cloudpickle")
            return NotImplemented  # save_global fails on a rebound attribute


def _dump_parts(pickler: type, obj: Any) -> "bytes | Parts":
    parts = Parts()
    pickler(parts, PICKLE_PROTOCOL).dump(obj)
    if len(parts) == 1:
        return parts[0]
    # An out-of-band array is a PickleBuffer (any shape): flatten it so
    # every part has a byte length and is sendmsg/slice-assignable.
    for i, part in enumerate(parts):
        if type(part) is pickle.PickleBuffer:
            parts[i] = part.raw()
    if parts.nbytes < ATTACH_MIN_BYTES:  # only a pickler that writes eagerly
        return b"".join(parts)
    return parts


def dumps_parts(obj: Any, *, what: str = "payload") -> "bytes | Parts":
    """Serialize *obj* completely — nothing is left to fail at send time —
    for a message's ``blob``: one ``bytes`` below :data:`ATTACH_MIN_BYTES`
    (the in-band payload there has always been), :class:`Parts` from there
    up; raise :class:`SerializationError` naming *what*.  Cloudpickle only
    redoes what the C pickler cannot, or any value while a module is
    registered to be pickled by value."""
    if _ByReference is not None and not _PICKLE_BY_VALUE_MODULES:
        try:
            return _dump_parts(_ByReference, obj)
        except Exception:  # noqa: BLE001 - by value, or an error: ask cloudpickle
            pass
    try:
        return _dump_parts(_Pickler, obj)
    except Exception as exc:  # noqa: BLE001 - picklers raise a zoo of types
        raise SerializationError(what, exc) from exc


def dumps(obj: Any, *, what: str = "payload") -> bytes:
    """Serialize *obj* to one ``bytes``; raise :class:`SerializationError`
    naming *what*."""
    blob = dumps_parts(obj, what=what)
    return blob if type(blob) is bytes else b"".join(blob)


def loads(blob: Blob, *, what: str = "payload") -> Any:
    """Deserialize a pickle stream, copying out of *blob* (the result never
    aliases it); failures (e.g. a module importable in the parent but not
    in the worker) become :class:`SerializationError`."""
    try:
        return pickle.loads(blob)
    except Exception as exc:  # noqa: BLE001
        raise SerializationError(what, exc) from exc


def pack_exception(exc: BaseException) -> tuple[bytes | None, str, str]:
    """(blob-or-None, repr, formatted traceback) for shipping a failure.

    The blob is None when the exception itself cannot be pickled — the
    receiving side then reconstructs a :class:`RemoteExecutionError` from
    the repr and traceback text instead.
    """
    tb = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
    try:
        blob = dumps(exc)
    except SerializationError:  # unpicklable exception: ship text only
        blob = None
    return blob, repr(exc), tb


def unpack_exception(blob: bytes | None, text: str, tb: str) -> BaseException:
    """Rebuild a shipped failure; degrade to :class:`RemoteExecutionError`
    when the original exception could not make the trip."""
    if blob is not None:
        try:
            exc = pickle.loads(blob)
        except Exception:  # noqa: BLE001
            return RemoteExecutionError(text, tb)
        if isinstance(exc, BaseException):
            # Preserve the worker-side traceback for post-mortems: the
            # unpickled exception's __traceback__ never survives the trip.
            exc.remote_traceback = tb  # type: ignore[attr-defined]
            return exc
    return RemoteExecutionError(text, tb)


class _Msg:
    """Base for wire messages: slotted, repr'd, sent as ``envelope(blob)``:
    ``(code, *fields)`` with *blob*, the payload or its stand-in, as blob."""

    __slots__: tuple[str, ...] = ()

    #: What a message without a ``blob`` field carries as attachment.
    blob = None

    def __init_subclass__(cls) -> None:
        # Spelled out per class: twice as fast as a loop over the slots.
        fields = cls.__slots__
        stored = "".join(f"    self.{f} = {f}\n" for f in fields)
        listed = "".join("blob, " if f == "blob" else f"self.{f}, " for f in fields)
        ns: dict[str, Any] = {}
        exec(
            f"def __init__(self, {', '.join(fields)}):\n{stored}    pass\n"
            f"def envelope(self, blob):\n    return (self.code, {listed})\n",
            ns,
        )
        cls.__init__, cls.envelope = ns["__init__"], ns["envelope"]

    def __reduce__(self):
        return (type(self), tuple(getattr(self, f) for f in self.__slots__))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"<{type(self).__name__} {fields}>"


def dumps_msg(msg: "_Msg", blob: Any) -> bytes:
    """*msg*'s envelope with *blob* in its ``blob`` field, pickled; but a
    :class:`HelloMsg` as itself, the version gate every version can read."""
    if type(msg) is HelloMsg:
        return pickle.dumps(msg, PICKLE_PROTOCOL)
    return pickle.dumps(msg.envelope(blob), PICKLE_PROTOCOL)


def dump_frame(msg: Any) -> tuple[list, int | None]:
    """``(body, attached)`` for a channel that frames bytes itself: the
    buffers to send, in order, and how many bytes at their end are the
    attachment (None without one).  A message whose ``blob`` is
    :class:`Parts` is its envelope without it, then the parts; any other
    message is its envelope alone.  A bare object (no message, so no
    telling how large) is all envelope, code 0, in parts if large."""
    if isinstance(msg, _Msg):
        blob = msg.blob
        if type(blob) is Parts:
            return [dumps_msg(msg, None), *blob], blob.nbytes
        return [dumps_msg(msg, blob)], None
    body = _dump_parts(pickle.Pickler, (0, msg))
    return (body if type(body) is Parts else [body]), None


def load_frame(envelope: Blob, attachment: Blob | None) -> Any:
    """Inverse of :func:`dump_frame` and :func:`dumps_msg`: the message,
    with *attachment* (still serialized — :func:`loads` is the consumer's
    one copy) as its blob; any mismatch is a desynchronized ``OSError``."""
    try:
        msg = pickle.loads(envelope)
        if type(msg) is tuple:
            msg = _KINDS[msg[0]](*msg[1:])
        elif type(msg) is not HelloMsg:
            raise TypeError(f"a {type(msg).__name__} is no envelope")
        if attachment is not None:
            if "blob" not in type(msg).__slots__:  # AttributeError: a bare object
                raise TypeError(f"an attachment on a {type(msg).__name__}")
            msg.blob = attachment
    except Exception as exc:  # noqa: BLE001 - whatever the bytes were
        raise OSError(f"malformed envelope ({exc!r}); stream desynchronized") from exc
    return msg


class ArenaOffer(_Msg):
    """Parent → worker on a pipe lane's task channel, absorbed by the
    worker's channel end: write large results into ``segment`` from now on
    (the parent created it and will unlink it; the worker only attaches)."""

    __slots__ = ("segment",)


class HelloMsg(_Msg):
    """First frame on every cluster connection, both directions.

    ``version`` is the sender's :data:`PROTOCOL_VERSION` — checked with
    :func:`check_protocol_version` before anything else is parsed, because
    it is the only field whose meaning must never change.  ``role`` names
    what the connection is for (``"task"`` or ``"ctrl"``); ``target_name``
    and ``slot`` identify which parent-side lane the connection serves, so
    the agent can pair a lane's task and control channels; ``meta`` is a
    small dict of non-load-bearing extras (pid, hostname) for diagnostics.
    """

    __slots__ = ("version", "role", "target_name", "slot", "meta")


class SyncMsg(_Msg):
    """Parent → worker, first message: clock-sync probe.

    ``parent_ns`` is the parent's ``perf_counter_ns`` at send time; the
    worker answers with :class:`SyncAck` immediately so the parent can
    estimate the clock offset from the round trip.
    """

    __slots__ = ("parent_ns",)


class SyncAck(_Msg):
    """Worker → parent: ``worker_ns`` is the worker's ``perf_counter_ns``
    captured while answering the :class:`SyncMsg`; ``pid`` confirms which
    process answered."""

    __slots__ = ("worker_ns", "pid")


class TaskMsg(_Msg):
    """Parent → worker: one region to execute.

    ``seq`` is the parent-side ``TargetRegion.seq`` (the trace correlation
    id); ``name``/``source`` reproduce the region's identity worker-side so
    traces and error messages carry the user's labels; ``blob`` is the
    serialized ``(body, args, kwargs)`` — what :func:`dumps_parts` gave
    when sent, ``bytes`` or a ``memoryview`` when received; ``trace`` tells
    the worker
    whether to record (and ship back) execution events.
    """

    __slots__ = ("seq", "name", "source", "blob", "trace")


class ResultMsg(_Msg):
    """Worker → parent: the outcome of one :class:`TaskMsg`.

    ``ok`` selects the branch: on success ``blob`` is the serialized return
    value (as in :class:`TaskMsg`); on failure
    ``exc_blob``/``exc_text``/``exc_tb`` are the :func:`pack_exception`
    triple.  ``events`` is the task's worker-side trace (a list of
    ``(kind, ts_ns, region, name, arg)`` tuples on the *worker's* clock)
    and ``events_dropped`` how many of its events the worker discarded:
    0, as a worker keeps every event of a task.
    """

    __slots__ = (
        "seq", "ok", "blob", "exc_blob", "exc_text", "exc_tb",
        "events", "events_dropped",
    )


class StopMsg(_Msg):
    """Parent → worker: drain sentinel; the worker main loop exits."""

    __slots__ = ()


class PingMsg(_Msg):
    """Parent shipper → worker control thread: liveness probe of an idle
    lane."""

    __slots__ = ("sent_ns",)


class PongMsg(_Msg):
    """Worker control thread → parent shipper: echo of :class:`PingMsg`.

    Answered by a dedicated thread, so a pong proves the worker process is
    alive and scheduling threads even while its main thread grinds through
    a long region.
    """

    __slots__ = ("sent_ns", "pid")


class CancelMsg(_Msg):
    """Parent → worker control thread: set the cooperative cancel token of
    the region ``seq`` if it is currently executing (stale seqs are ignored
    — the region may have finished while the message was in flight)."""

    __slots__ = ("seq",)


#: What an envelope's ``code`` decodes to: 0 a bare object (anything sent
#: that is no message), then the messages.  A change is a new protocol version.
_KINDS: dict[Any, Any] = dict(enumerate((lambda value: value, ArenaOffer, SyncMsg,
    SyncAck, TaskMsg, ResultMsg, StopMsg, PingMsg, PongMsg, CancelMsg)))
for _code, _kind in _KINDS.items():
    _kind.code = _code
