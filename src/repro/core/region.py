"""Target regions: the liftable unit of work.

The Pyjama compiler restructures every target block into a runnable
``TargetRegion`` class (paper §IV-A).  Our :class:`TargetRegion` is the
runtime counterpart: a one-shot callable with completion state, a result/
exception slot, and completion callbacks (used by the ``await`` logical
barrier and by the ``name_as`` tag registry).
"""

from __future__ import annotations

import enum
import itertools
import threading
from typing import Any, Callable

from ..obs import EventKind
from ..obs import recorder as _trace
from .errors import RegionCancelledError, RegionFailedError

__all__ = ["RegionState", "TargetRegion", "CancelToken", "current_region"]

_region_counter = itertools.count()
_region_seq = itertools.count()
_current_region = threading.local()


def current_region() -> "TargetRegion | None":
    """The region currently executing on the calling thread, if any.

    Lets target-block bodies reach their own handle — most usefully the
    cooperative cancel token — without the compiler having to thread it
    through as an argument::

        def body():
            while not current_region().cancel_token.cancelled:
                step()
    """
    return getattr(_current_region, "value", None)


class CancelToken:
    """Cooperative cancellation flag a running region body can poll.

    ``cancel()`` on a *pending* region withdraws it outright; for a *running*
    region Python threads cannot be interrupted, so cancellation flips this
    token and the body is expected to observe it at its next convenient
    point (poll :attr:`cancelled` or call :meth:`raise_if_cancelled`).
    """

    __slots__ = ("_event",)

    def __init__(self) -> None:
        self._event = threading.Event()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def set(self) -> None:
        self._event.set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until cancellation is requested (useful in sleepy loops)."""
        return self._event.wait(timeout)

    def raise_if_cancelled(self) -> None:
        """Raise ``RuntimeError`` if cancellation was requested.

        The region then finishes FAILED and waiters see the usual
        :class:`RegionFailedError`, which is the honest outcome for a body
        that stopped halfway.
        """
        if self._event.is_set():
            raise RuntimeError("target region body observed a cancellation request")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CancelToken {'cancelled' if self.cancelled else 'live'}>"


class RegionState(enum.Enum):
    """Lifecycle of a target region (pending -> running -> terminal)."""

    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def is_terminal(self) -> bool:
        return self in (RegionState.COMPLETED, RegionState.FAILED, RegionState.CANCELLED)


# Module-level aliases: the dispatch path reads a global, not an enum class
# attribute, per transition.
_PENDING, _RUNNING, _COMPLETED, _FAILED, _CANCELLED = RegionState


class TargetRegion:
    """A one-shot unit of work lifted from a target block.

    Parameters
    ----------
    body:
        The callable holding the user code of the block.  Called with the
        positional/keyword arguments given at construction (the compiler
        passes captured firstprivate values this way; shared state is simply
        closed over, since virtual targets share host memory).
    name:
        Debug name.  The compiler generates ``TargetRegion_<n>`` names
        mirroring Pyjama's generated classes.
    source:
        Optional ``file:line`` provenance stamp.  The source-to-source
        compiler fills it from the pragma location so trace spans carry the
        user's code location, not a generated closure name.
    """

    __slots__ = (
        "body", "args", "kwargs", "_name", "source", "seq", "_state", "_result",
        "_exception", "_finished", "_done", "_lock", "_callbacks",
        "_cancel_token", "_trace_window",
    )

    def __init__(
        self,
        body: Callable[..., Any],
        *args: Any,
        name: str | None = None,
        source: str | None = None,
        **kwargs: Any,
    ) -> None:
        self.body = body
        self.args = args
        self.kwargs = kwargs
        self._name = name
        self.source = source
        #: Process-unique id correlating this region's trace events.
        self.seq = next(_region_seq)
        self._state = _PENDING
        self._result: Any = None
        self._exception: BaseException | None = None
        # Dispatch is the runtime's hot path, so the waiter machinery is
        # lazy: the done latch exists only once someone blocks on the region
        # (inline and fire-and-forget dispatches never pay for it), and the
        # cancel token only once someone asks for it.  ``_finished`` is the
        # lock-free done flag (a plain bool write is atomic under the GIL).
        # The latch is a lock held until the region ends (an Event is ~50x).
        self._finished = False
        self._done: threading.Lock | None = None
        self._lock = threading.Lock()
        # A tuple: most regions get no callback, and need no list to scan.
        self._callbacks: tuple[Callable[["TargetRegion"], None], ...] = ()
        self._cancel_token: CancelToken | None = None

    # ------------------------------------------------------------------ state

    @property
    def name(self) -> str:
        """Debug name (generated lazily off the dispatch path)."""
        n = self._name
        if n is None:
            n = self._name = f"TargetRegion_{next(_region_counter)}"
        return n

    @name.setter
    def name(self, value: str) -> None:
        self._name = value

    @property
    def cancel_token(self) -> CancelToken:
        """The cooperative cancellation token (created on first use)."""
        tok = self._cancel_token
        if tok is None:
            with self._lock:
                tok = self._cancel_token
                if tok is None:
                    tok = self._cancel_token = CancelToken()
                    if self._state is _CANCELLED:
                        tok.set()
        return tok

    @property
    def state(self) -> RegionState:
        return self._state

    @property
    def done(self) -> bool:
        return self._finished

    @property
    def exception(self) -> BaseException | None:
        return self._exception

    @property
    def label(self) -> str:
        """Trace label: the debug name plus the compiler's source stamp."""
        if self.source:
            return f"{self.name}@{self.source}"
        return self.name

    def _trace_name(self, window: int) -> str | None:
        """The name for this region's next trace event in recording *window*
        (``TraceSession.generation``): its :attr:`label` on the first event,
        None after — ``TraceSession.events()`` names those from the first.
        ``_trace_window`` stays unset until a traced event asks."""
        try:
            if self._trace_window == window:
                return None
        except AttributeError:
            pass
        self._trace_window = window
        return self.label

    def cancel(self, reason: BaseException | None = None) -> bool:
        """Cancel the region if it has not started running.

        Returns True if the region transitioned to CANCELLED.  A running or
        finished region cannot be cancelled (matching ``Future.cancel``).

        *reason* optionally records why: waiters then see it as the cause of
        their :class:`RegionCancelledError`, and ``name_as`` tag groups count
        the cancellation as a failure (a drained target's lost work must not
        look like success to ``wait_tag``).  A bare ``cancel()`` stays a
        benign withdrawal, invisible to tag waits.
        """
        with self._lock:
            if self._state is not _PENDING:
                return False
            self._state = _CANCELLED
            self._exception = reason
            # The done flag flips inside the transition lock so a concurrent
            # wait() either sees it or has already installed the latch we
            # release below — no lost wakeup either way.
            self._finished = True
            latch, callbacks, self._callbacks = self._done, self._callbacks, ()
        self.cancel_token.set()
        if latch is not None:
            latch.release()
        session = _trace.session()
        if session.enabled:
            session.emit(
                EventKind.CANCEL,
                region=self.seq,
                name=self._trace_name(session.generation),
                arg=type(reason).__name__ if reason is not None else None,
            )
        for cb in callbacks:
            cb(self)
        return True

    def request_cancel(self, reason: BaseException | None = None) -> bool:
        """Cancel if pending; otherwise flag the cooperative token.

        Unlike :meth:`cancel` this never gives up on a running region: the
        body can poll ``cancel_token`` (or :func:`current_region`) and bail
        out early.  Returns True only for a hard (pending) cancellation.
        """
        if self.cancel(reason):
            return True
        if not self._finished:
            self.cancel_token.set()
        return False

    # -------------------------------------------------------------- execution

    def run(self) -> None:
        """Execute the body exactly once; record result or exception.

        Safe to call from any thread; a second call (or a call after
        cancellation) is a no-op so that racy dispatch cannot double-run user
        code.
        """
        if not self.mark_running():
            return
        previous = getattr(_current_region, "value", None)
        _current_region.value = self
        try:
            result = self.body(*self.args, **self.kwargs)
        except BaseException as exc:  # noqa: BLE001 - must capture to re-raise at wait()
            state, result, exception = _FAILED, None, exc
        else:
            state, exception = _COMPLETED, None
        finally:
            _current_region.value = previous
        self._settle(state, result, exception)

    def _settle(self, state: RegionState, result: Any, exception: BaseException | None) -> bool:
        """Record the outcome of a region that ran here or remotely, then
        open the latch and run the callbacks outside the lock (taken by
        ``acquire``/``release``: half the cost of ``with``); False if done."""
        lock = self._lock
        lock.acquire()
        if self._finished:
            lock.release()
            return False
        self._result = result
        self._exception = exception
        self._state = state
        self._finished = True
        latch, callbacks, self._callbacks = self._done, self._callbacks, ()
        lock.release()
        if latch is not None:
            latch.release()
        for cb in callbacks:
            cb(self)
        return True

    # ------------------------------------------------- remote execution hooks

    def mark_running(self) -> bool:
        """Transition PENDING → RUNNING without executing the body locally.

        The claim step of :meth:`run` and of remote dispatch (before the
        region is serialized), so that a concurrent ``cancel()`` either wins
        (this returns False and nothing runs or is shipped) or loses (the
        region is RUNNING and only its cooperative token can stop it).
        """
        lock = self._lock
        lock.acquire()
        claimed = self._state is _PENDING
        if claimed:
            self._state = _RUNNING
        lock.release()
        return claimed

    def fulfill(self, result: Any = None, *, exception: BaseException | None = None) -> bool:
        """Complete a region whose body ran outside this process.

        The delivery step of remote dispatch: results and exceptions coming
        back over the wire land here, so waiters (``wait``/``result``,
        ``wait_tag``, ``await`` barriers) and done-callbacks behave exactly
        as they do for locally executed regions.  No-ops (returning False) if
        the region is already terminal — e.g. fulfilled by a crash handler
        racing a late result.
        """
        if exception is not None:
            return self._settle(_FAILED, None, exception)
        return self._settle(_COMPLETED, result, None)

    # ----------------------------------------------------------- completion

    def add_done_callback(self, cb: Callable[["TargetRegion"], None]) -> None:
        """Register *cb* to run when the region reaches a terminal state.

        If the region is already terminal the callback runs immediately in
        the calling thread (same contract as ``Future.add_done_callback``).
        """
        with self._lock:
            if not self._finished:
                self._callbacks += (cb,)
                return
        cb(self)

    def wait(self, timeout: float | None = None) -> bool:
        """Block until terminal; returns False on timeout.  The region's end
        releases the latch once; each waiter that gets it passes it on."""
        if self._finished:
            return True
        with self._lock:
            if self._finished:
                return True
            latch = self._done
            if latch is None:
                latch = self._done = threading.Lock()
                latch.acquire()
        if not latch.acquire(True, -1 if timeout is None else max(timeout, 0)):
            return False
        latch.release()
        return True

    def result(self, timeout: float | None = None) -> Any:
        """Block until terminal and return the body's return value.

        Raises :class:`RegionFailedError` (chaining the original exception)
        if the body raised, ``TimeoutError`` on timeout, and
        :class:`RegionFailedError` wrapping ``CancelledError``-like state if
        cancelled.
        """
        if not self.wait(timeout):
            raise TimeoutError(f"timed out waiting for {self.name}")
        if self._state is _CANCELLED:
            raise RegionCancelledError(self.name, self._exception)
        if self._exception is not None:
            raise RegionFailedError(self.name, self._exception)
        return self._result

    def __repr__(self) -> str:
        return f"<TargetRegion {self.name} {self._state.value}>"
