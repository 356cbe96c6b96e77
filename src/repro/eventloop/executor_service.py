"""ExecutorService baseline: the manual thread-pool offloading approach.

Paper §V-A compares Pyjama against hand-written ``ExecutorService`` code
("using SwingUtilities when necessary").  The paper also defines a worker
virtual target as "a syntax-level abstraction of a thread pool executor"
(§III-A), so the baseline here *is* that pool without the syntax: an
:class:`ExecutorService` is a Java-named view over an unregistered
:class:`~repro.core.targets.WorkerTarget`.  The only difference between
``submit(fn).get()`` and a directive dispatch is Algorithm 1's routing, and
the baseline's tasks land on the trace (ENQUEUE -> DEQUEUE -> EXEC on the
pool's name) like every target region.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable

from ..core.region import TargetRegion
from ..core.targets import WorkerTarget

__all__ = ["Future", "ExecutorService"]


class Future:
    """Java-style future over a :class:`TargetRegion`."""

    def __init__(self, region: TargetRegion) -> None:
        self._region = region

    def get(self, timeout: float | None = None) -> Any:
        return self._region.result(timeout)

    def is_done(self) -> bool:
        return self._region.done

    def cancel(self) -> bool:
        return self._region.cancel()

    def request_cancel(self) -> bool:
        """Cooperative cancel: withdraw if still queued, otherwise flag the
        region's cancel token for the running body to poll."""
        return self._region.request_cancel()

    def add_done_callback(self, cb: Callable[[TargetRegion], None]) -> None:
        self._region.add_done_callback(cb)


class ExecutorService:
    """A fixed thread pool with Java's ExecutorService API surface.

    ``shutdown()`` is Java's ``shutdown()`` followed by
    ``awaitTermination()``: the backlog drains and the threads are joined.
    ``shutdown_now()`` cancels the backlog instead, so a queued task's
    ``get`` raises :class:`~repro.core.errors.RegionCancelledError`.
    """

    _pool_ids = itertools.count()

    def __init__(self, n_threads: int, name: str | None = None) -> None:
        self.target = WorkerTarget(name or f"executor-{next(self._pool_ids)}", n_threads)

    def submit(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Future:
        region = TargetRegion(fn, *args, **kwargs)
        self.target.post(region)
        return Future(region)

    #: Java's ``Executor.execute``; the future is there to ignore.
    execute = submit

    def shutdown(self) -> None:
        self.target.shutdown(wait=True)

    def shutdown_now(self) -> None:
        self.target.shutdown(wait=False)
