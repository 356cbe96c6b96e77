"""SwingWorker baseline (paper Figure 3).

Reproduces the Java ``SwingWorker<T, V>`` contract the paper benchmarks
against:

* ``do_in_background`` runs on a shared worker pool — Java's implementation
  keeps a **10-thread-max** pool, which the paper calls out explicitly, so we
  default to the same bound;
* ``publish(chunk…)`` hands intermediate values to ``process(chunks)``,
  which runs **on the EDT**, with consecutive publishes coalesced into one
  ``process`` call exactly like Swing does;
* ``done()`` runs on the EDT after the background work finishes.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Generic, TypeVar

from .edt import EventLoop
from .executor_service import ExecutorService, Future

__all__ = ["SwingWorker", "swing_worker_pool"]

T = TypeVar("T")
V = TypeVar("V")

_shared_pool: ExecutorService | None = None
_shared_lock = threading.Lock()

MAX_WORKER_THREADS = 10  # javax.swing.SwingWorker's hard-coded bound


def swing_worker_pool() -> ExecutorService:
    """The process-wide 10-thread pool shared by all SwingWorkers."""
    global _shared_pool
    with _shared_lock:
        if _shared_pool is None or not _shared_pool.target.alive:
            _shared_pool = ExecutorService(MAX_WORKER_THREADS, name="swingworker")
        return _shared_pool


class SwingWorker(Generic[T, V]):
    """Subclass and override ``do_in_background`` (+ optionally ``process``,
    ``done``), then call :meth:`execute` from the EDT."""

    def __init__(self, loop: EventLoop, pool: ExecutorService | None = None) -> None:
        self.loop = loop
        self._pool = pool or swing_worker_pool()
        self._pending_chunks: list[V] = []
        self._chunk_lock = threading.Lock()
        self._process_scheduled = False
        self._future: Future | None = None
        self._done_event = threading.Event()
        self._cancelled = threading.Event()

    # --------------------------------------------------- user-overridable API

    def do_in_background(self) -> T:  # pragma: no cover - abstract by convention
        raise NotImplementedError

    def process(self, chunks: list[V]) -> None:
        """Handle published intermediate values on the EDT.  Default: ignore."""

    def done(self) -> None:
        """Completion hook, runs on the EDT.  Default: nothing."""

    # ----------------------------------------------------------- machinery

    def publish(self, *chunks: V) -> None:
        """Queue intermediate values for :meth:`process` on the EDT.

        Multiple publishes before the EDT gets around to processing are
        delivered as one batched ``process`` call (Swing's coalescing rule).
        """
        with self._chunk_lock:
            self._pending_chunks.extend(chunks)
            if self._process_scheduled:
                return
            self._process_scheduled = True
        self.loop.invoke_later(self._drain_chunks)

    def _drain_chunks(self) -> None:
        with self._chunk_lock:
            chunks, self._pending_chunks = self._pending_chunks, []
            self._process_scheduled = False
        if chunks:
            self.process(chunks)

    def execute(self) -> Future:
        """Submit the background work; returns the future for ``get()``."""
        if self._future is not None:
            raise RuntimeError("a SwingWorker can be executed only once")

        def run() -> T:
            try:
                return self.do_in_background()
            finally:
                self.loop.invoke_later(self._finish)

        self._future = self._pool.submit(run)
        return self._future

    def _finish(self) -> None:
        try:
            self.done()
        finally:
            self._done_event.set()

    def get(self, timeout: float | None = None) -> T:
        """Result of ``do_in_background`` (blocking; Java semantics)."""
        if self._future is None:
            raise RuntimeError("execute() has not been called")
        return self._future.get(timeout)

    def wait_done(self, timeout: float | None = None) -> bool:
        """Wait until ``done()`` has run on the EDT (test convenience)."""
        return self._done_event.wait(timeout)

    @property
    def is_done(self) -> bool:
        return self._future is not None and self._future.is_done()

    # -------------------------------------------------------- cancellation

    def cancel(self) -> bool:
        """Java's ``cancel(true)``, cooperatively: a queued background task
        is withdrawn outright; a running one keeps running but
        :attr:`is_cancelled` flips so ``do_in_background`` can bail out
        early (Python threads cannot be interrupted forcibly).  ``done()``
        still runs on the EDT either way, matching SwingWorker."""
        self._cancelled.set()
        if self._future is None:
            return True
        withdrawn = self._future.cancel()
        if not withdrawn:
            # Already running: flag the region's cooperative cancel token too,
            # so bodies polling current_region() (not the worker) also see it.
            self._future.request_cancel()
        if withdrawn:
            # The background body never runs, so its finally-hook never
            # posts done(); do it here.
            self.loop.invoke_later(self._finish)
        return withdrawn

    @property
    def is_cancelled(self) -> bool:
        return self._cancelled.is_set()


def worker_from_callables(
    loop: EventLoop,
    background: Callable[["SwingWorker"], T],
    process: Callable[[list[V]], None] | None = None,
    done: Callable[[], None] | None = None,
    pool: ExecutorService | None = None,
) -> SwingWorker:
    """Build a SwingWorker without subclassing (keeps examples compact)."""

    class _Worker(SwingWorker):
        def do_in_background(self) -> T:
            return background(self)

        def process(self, chunks: list[V]) -> None:
            if process is not None:
                process(chunks)

        def done(self) -> None:
            if done is not None:
                done()

    return _Worker(loop, pool)
