"""asyncio adapter: an asyncio event loop as a virtual target.

The paper's experimental runtime binds to Java AWT's event queue; the same
model fits any dispatcher with a "post a callable" primitive.  asyncio's is
``loop.call_soon_threadsafe``, so:

* ``target virtual(<name>)`` blocks posted from worker threads run as
  callbacks on the asyncio loop (the EDT role);
* the context-awareness rule holds — dispatch from inside the loop's thread
  runs inline;
* ``nowait`` / ``name_as`` work unchanged;
* ``await`` is *rejected with guidance*: an asyncio loop cannot be pumped
  re-entrantly from inside a callback, so the logical barrier is expressed
  natively instead — :func:`as_future` turns any region handle into an
  awaitable, making ``await as_future(run_on(...))`` the coroutine spelling
  of the paper's await clause.

:func:`run_blocking_io` covers the conclusion's "integrating non-blocking
I/O and asynchronous I/O": blocking I/O calls are offloaded to a worker
virtual target and awaited without blocking the loop.
"""

from __future__ import annotations

import asyncio
import logging
import threading
from typing import Any, Callable

from ..core.errors import RuntimeStateError, TargetShutdownError
from ..core.region import TargetRegion
from ..core.runtime import PjRuntime
from ..core.targets import VirtualTarget, _item_label

__all__ = ["AsyncioEdtTarget", "register_asyncio_edt", "as_future", "run_blocking_io"]

_logger = logging.getLogger(__name__)


class AsyncioEdtTarget(VirtualTarget):
    """Wraps a running :class:`asyncio.AbstractEventLoop` as a virtual target.

    The loop's callback thread becomes the single member, so widget-style
    code guarded by ``target virtual(<name>)`` executes on the loop exactly
    like EDT-confined code does under Swing.

    The backlog lives on the inherited target queue — admission, rejection
    policies, injection seams, depth telemetry and backlog cancellation are
    the base class's — and the loop is merely its consumer: every admitted
    post schedules one ``call_soon_threadsafe`` step that runs the oldest
    queued item, so the loop's own callback queue stays the pacing and
    fairness authority.
    """

    kind = "asyncio"
    supports_pumping = False  # asyncio loops cannot be pumped re-entrantly

    def __init__(
        self,
        name: str,
        loop: asyncio.AbstractEventLoop,
        *,
        queue_capacity: int | None = None,
        rejection_policy: str = "block",
    ) -> None:
        super().__init__(
            name, queue_capacity=queue_capacity, rejection_policy=rejection_policy
        )
        self.loop = loop
        self._bound = threading.Event()
        loop.call_soon_threadsafe(self._bind)

    def _bind(self) -> None:
        self._enter_member()
        self._bound.set()

    def wait_bound(self, timeout: float = 5.0) -> bool:
        """Block until the loop thread registered itself (setup helper)."""
        return self._bound.wait(timeout)

    # ---------------------------------------------------------------- posts

    def post(
        self,
        item: TargetRegion | Callable[[], Any],
        *,
        timeout: float | None = None,
    ) -> bool:
        if self.loop.is_closed():
            raise TargetShutdownError(self.name)
        queued = super().post(item, timeout=timeout)
        if queued:
            # The guest primitive, one step per queued item: a step whose
            # item was withdrawn meanwhile (backlog cancel) finds nothing.
            self.loop.call_soon_threadsafe(VirtualTarget.process_one, self, 0)
        return queued

    def _dispatch(self, item: Any, *, dequeued: bool = True) -> None:
        """Adds the ``caller_runs`` hazard this adapter is uniquely exposed to.

        On a thread-backed target, caller_runs is backpressure: the posting
        thread pays for its own burst.  But when the poster *is* the event
        loop thread (a callback posting onward), "run it in the caller" means
        running CPU-bound work on the loop — every other connection stalls
        behind it.  The policy still honors its contract, so this warns
        rather than refuses; latency-sensitive loops should prefer ``reject``
        (map it to a 503) or ``block`` with a post timeout.
        """
        if not dequeued and self.contains():
            _logger.warning(
                "caller_runs on asyncio target %r is executing region %r on "
                "the event loop thread; CPU-bound work will stall every other "
                "callback — prefer rejection_policy='reject' (surface a 503) "
                "or 'block' with a post timeout",
                self.name, _item_label(item),
            )
        super()._dispatch(item, dequeued=dequeued)

    def process_one(self, timeout: float | None = None) -> bool:
        """Refused, and :meth:`drain` with it: the backlog is loop-confined
        work, and a guest would run it on the calling thread."""
        raise RuntimeStateError(
            f"asyncio target {self.name!r} cannot be pumped; await regions "
            "with as_future() inside coroutines instead"
        )

    #: How long ``shutdown(wait=True)`` waits for the backlog to run down
    #: before downgrading to cancel with a diagnostic (class-level so tests
    #: can shrink it, mirroring ``EdtTarget._shutdown_ack_timeout``).
    _drain_grace = 5.0

    def shutdown(self, wait: bool = True) -> None:
        # The loop belongs to the application; we only detach from it.  But
        # items already queued for the loop are ours: ``wait=False`` cancels
        # the not-yet-run ones so their waiters fail fast instead of hanging
        # on callbacks a dying loop may never execute.  ``wait=True`` honors
        # the drain covenant *bounded by _drain_grace*: a keep-alive handler
        # that never returns must not wedge the caller, so past the deadline
        # the drain downgrades to cancel and says so.
        if not self._enter_shutdown():
            return
        if not self.loop.is_running():
            wait = False  # stopped or closed: no step will ever run
        elif wait and not self.contains():
            # Waiting *on* the loop thread would deadlock the very loop that
            # has to run the steps being waited for — same self-thread rule
            # as EdtTarget.shutdown.  Off-loop, a marker callback queues FIFO
            # behind every step already scheduled (and the one running).
            drained = threading.Event()
            self.loop.call_soon_threadsafe(drained.set)
            if not drained.wait(self._drain_grace):
                wait = False  # downgrade: cancel whatever is still pending
                _logger.warning(
                    "asyncio target %r did not drain its queued regions "
                    "within %.1fs; downgrading shutdown to cancel: %s",
                    self.name, self._drain_grace, self.describe(),
                )
        if not wait:
            self._cancel_pending()
        thread = next(iter(self._members.values()), None)
        if thread is not None:
            self._exit_member(thread)
            if thread is not threading.current_thread():
                # current_target() is the loop thread's own binding: only a
                # callback on that thread can drop it.
                try:
                    self.loop.call_soon_threadsafe(self._exit_member)
                except RuntimeError:  # closed: no callback reaches it now
                    pass


def register_asyncio_edt(
    runtime: PjRuntime,
    name: str = "edt",
    loop: asyncio.AbstractEventLoop | None = None,
    *,
    queue_capacity: int | None = None,
    rejection_policy: str = "block",
) -> AsyncioEdtTarget:
    """Register a (running) asyncio loop as virtual target *name*.

    Call from inside the loop (``loop`` defaults to the running loop) or
    from another thread with an explicit loop object.  The queue is
    unbounded unless *queue_capacity* is given, like every other target
    factory's.
    """
    if loop is None:
        loop = asyncio.get_running_loop()
    target = AsyncioEdtTarget(
        name, loop, queue_capacity=queue_capacity, rejection_policy=rejection_policy
    )
    runtime.register_target(target)
    return target


def as_future(
    region: TargetRegion, loop: asyncio.AbstractEventLoop | None = None
) -> "asyncio.Future[Any]":
    """An awaitable view of a region handle.

    The coroutine spelling of the paper's ``await`` clause::

        handle = run_on("worker", blocking_kernel, mode="nowait", runtime=rt)
        result = await as_future(handle)     # loop keeps dispatching

    The future resolves with the region's result, or raises its
    :class:`~repro.core.errors.RegionFailedError`.  A region that settles
    after *loop* closed leaves the abandoned future as it is.
    """
    if loop is None:
        loop = asyncio.get_running_loop()
    future: asyncio.Future[Any] = loop.create_future()

    def resolve(reg: TargetRegion) -> None:
        def apply() -> None:
            if future.cancelled():
                return
            try:
                future.set_result(reg.result())
            except BaseException as exc:  # noqa: BLE001 - forwarded to awaiter
                future.set_exception(exc)

        try:
            loop.call_soon_threadsafe(apply)
        except RuntimeError:
            if not loop.is_closed():
                raise
            # The loop closed first: no one can await the future any more,
            # and the settling thread (often a pool lane) must not fail.

    region.add_done_callback(resolve)
    return future


async def run_blocking_io(
    runtime: PjRuntime,
    target: str,
    fn: Callable[..., Any],
    *args: Any,
    **kwargs: Any,
) -> Any:
    """Run blocking I/O (or CPU work) on a worker virtual target and await
    it without blocking the asyncio loop.

    The async-I/O integration the paper's conclusion sketches: the worker
    target is the paper's executor; the future bridge keeps the loop free.
    """
    region = runtime.invoke_target_block(
        target, TargetRegion(fn, *args, **kwargs), "nowait"
    )
    return await as_future(region)
