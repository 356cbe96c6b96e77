"""ExecutorService baseline: the manual thread-pool offloading approach.

Paper §V-A compares Pyjama against hand-written ``ExecutorService`` code
("using SwingUtilities when necessary").  This module reproduces the Java
API surface programmers use for that pattern — ``submit`` returning a
future, fixed/cached pools, ``shutdown``/``awaitTermination`` — built on the
same primitives as the rest of the library so overhead comparisons are
apples-to-apples.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from typing import Any, Callable, Iterable

from ..core.errors import QueueFullError
from ..core.region import TargetRegion

__all__ = ["Future", "ExecutorService", "new_fixed_thread_pool", "ThreadPerRequestExecutor"]


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
    """A fixed thread pool with Java's ExecutorService API surface."""

    _pool_ids = itertools.count()

    def __init__(
        self,
        n_threads: int,
        name: str | None = None,
        *,
        queue_capacity: int | None = None,
        rejection_policy: str = "block",
    ) -> None:
        if n_threads < 1:
            raise ValueError("need at least one thread")
        if rejection_policy not in ("block", "reject", "caller_runs"):
            raise ValueError(f"unknown rejection policy {rejection_policy!r}")
        if queue_capacity is not None and queue_capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {queue_capacity}")
        self.name = name or f"executor-{next(self._pool_ids)}"
        self.queue_capacity = queue_capacity
        self.rejection_policy = rejection_policy
        self._queue: "deque[TargetRegion]" = deque()
        self._cond = threading.Condition()
        self._shutdown = False
        self._active = 0
        self._threads = [
            threading.Thread(target=self._loop, name=f"{self.name}-{i}", daemon=True)
            for i in range(n_threads)
        ]
        for t in self._threads:
            t.start()

    def _loop(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._shutdown:
                    self._cond.wait()
                if self._shutdown and not self._queue:
                    return
                region = self._queue.popleft()
                self._active += 1
                # A queue slot just freed: wake submitters blocked on a
                # bounded queue without waiting for the region to finish.
                self._cond.notify_all()
            try:
                region.run()
            finally:
                with self._cond:
                    self._active -= 1
                    self._cond.notify_all()

    # ------------------------------------------------------------------- API

    def submit(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Future:
        region = TargetRegion(fn, *args, **kwargs)
        run_in_caller = False
        with self._cond:
            if self._shutdown:
                raise RuntimeError(f"executor {self.name} is shut down")
            if self.queue_capacity is not None and len(self._queue) >= self.queue_capacity:
                # Same three policies as VirtualTarget.post (Java's
                # RejectedExecutionHandler family).
                if self.rejection_policy == "reject":
                    raise QueueFullError(self.name, self.queue_capacity)
                if self.rejection_policy == "caller_runs":
                    run_in_caller = True
                else:  # block
                    self._cond.wait_for(
                        lambda: self._shutdown
                        or len(self._queue) < self.queue_capacity
                    )
                    if self._shutdown:
                        raise RuntimeError(f"executor {self.name} is shut down")
            if not run_in_caller:
                self._queue.append(region)
                self._cond.notify()
        if run_in_caller:
            region.run()
        return Future(region)

    def invoke_all(
        self, tasks: Iterable[Callable[[], Any]], timeout: float | None = None
    ) -> list[Future]:
        futures = [self.submit(t) for t in tasks]
        deadline = None if timeout is None else time.monotonic() + timeout
        for f in futures:
            remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
            f._region.wait(remaining)
        return futures

    def execute(self, fn: Callable[[], Any]) -> None:
        """Fire-and-forget (Java's Executor.execute)."""
        self.submit(fn)

    def shutdown(self) -> None:
        with self._cond:
            self._shutdown = True
            self._cond.notify_all()

    def shutdown_now(self) -> list[TargetRegion]:
        with self._cond:
            self._shutdown = True
            dropped = list(self._queue)
            self._queue.clear()
            self._cond.notify_all()
        for r in dropped:
            r.cancel()
        return dropped

    def await_termination(self, timeout: float = 10.0) -> bool:
        deadline = time.monotonic() + timeout
        for t in self._threads:
            t.join(max(0.0, deadline - time.monotonic()))
        return not any(t.is_alive() for t in self._threads)

    @property
    def queue_length(self) -> int:
        with self._cond:
            return len(self._queue)

    @property
    def active_count(self) -> int:
        with self._cond:
            return self._active


def new_fixed_thread_pool(n: int, name: str | None = None) -> ExecutorService:
    """Java's ``Executors.newFixedThreadPool`` spelling."""
    return ExecutorService(n, name)


class ThreadPerRequestExecutor:
    """The traditional thread-per-request approach (paper §II-A).

    Spawns a fresh thread per task — the non-scalable baseline whose
    oversubscription collapse Figure 9 demonstrates.
    """

    def __init__(self, name: str = "thread-per-request") -> None:
        self.name = name
        self._spawned = 0
        self._lock = threading.Lock()

    def submit(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Future:
        region = TargetRegion(fn, *args, **kwargs)
        with self._lock:
            self._spawned += 1
            n = self._spawned
        threading.Thread(
            target=region.run, name=f"{self.name}-{n}", daemon=True
        ).start()
        return Future(region)

    @property
    def spawned(self) -> int:
        with self._lock:
            return self._spawned

    def shutdown(self) -> None:  # no pool to stop; API parity only
        pass
