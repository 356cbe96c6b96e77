"""Teams: the fork-join engine's per-region state.

A :class:`Team` is created at a ``parallel`` construct: the encountering
thread becomes the master (thread 0) and *participates in the work-sharing
region* — the property the paper identifies as fundamentally incompatible
with event-driven programming ("the traditional fork-join model forces the
master thread … to participate").  The event-driven extension escapes this by
wrapping the whole region in a worker virtual target; the fork-join substrate
itself stays faithful to OpenMP.  The other members and the team's
deferred tasks are regions on :attr:`Team.target`, the region's hot team.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from ..core.targets import WorkerTarget
from .icv import ICVs

__all__ = ["Team", "ThreadContext", "current_context", "push_context", "pop_context"]

_tls = threading.local()


class ThreadContext:
    """Per-thread view of its team (what omp_get_thread_num() etc. read).

    It is also the thread's *implicit task*: ``task`` is the deferred task
    the thread is running now (None: the region body itself), ``children``
    the implicit task's deferred children not yet finished and ``ran`` the
    tasks run under it (see :mod:`repro.openmp.tasking`).
    """

    __slots__ = ("team", "thread_num", "task", "children", "ran")

    def __init__(self, team: "Team", thread_num: int) -> None:
        self.team = team
        self.thread_num = thread_num
        self.task: Any = None
        self.children = 0
        self.ran = 0


def _stack() -> list[ThreadContext]:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = []
        _tls.stack = stack
    return stack


def current_context() -> ThreadContext | None:
    """The calling thread's innermost team context (None outside regions)."""
    stack = _stack()
    return stack[-1] if stack else None


def push_context(ctx: ThreadContext) -> None:
    _stack().append(ctx)


def pop_context() -> None:
    _stack().pop()


class Team:
    """A group of threads executing one parallel region."""

    def __init__(self, num_threads: int, icvs: ICVs, level: int = 1) -> None:
        if num_threads < 1:
            raise ValueError("a team needs at least one thread")
        self.num_threads = num_threads
        self.icvs = icvs
        self.level = level
        #: Runs members 1..n-1 and every task (None for a team of one).
        self.target: WorkerTarget | None = None
        self.thread_nums: dict[int, int] = {}  # thread ident -> member number
        self.tasks = 0  # deferred tasks not yet finished
        self._barrier = threading.Barrier(num_threads)
        self._lock = threading.Lock()
        #: Set once every member has started.  Until then the target's queue
        #: may hold a member, which a pump would run nested on its own thread,
        #: so lane members and the master's pumps wait for it first.
        self.all_started = threading.Event()
        # Worksharing constructs are identified by arrival order per thread:
        # the n-th construct each thread encounters maps to shared state n.
        self._workshares: dict[int, dict[str, Any]] = {}
        self._ws_counters: dict[int, int] = {}
        self._exceptions: list[tuple[int, BaseException]] = []

    # ----------------------------------------------------------------- sync

    def barrier(self) -> None:
        """Team-wide barrier.  Reusable (threading.Barrier cycles).

        Pending deferred tasks are executed first (OpenMP completes tasks at
        barriers).
        """
        if self.target is not None:
            self.all_started.wait()
            self.target.drain()
        self._barrier.wait()

    # ------------------------------------------------------------ workshares

    def next_workshare_key(self, thread_num: int) -> int:
        """The construct-instance key for the calling thread's next
        worksharing construct (arrival-order matching, as real OpenMP
        runtimes do: all threads must encounter the same constructs in the
        same order, a requirement the spec places on the program)."""
        with self._lock:
            n = self._ws_counters.get(thread_num, 0)
            self._ws_counters[thread_num] = n + 1
            return n

    def workshare_state(self, key: int, factory: Callable[[], dict[str, Any]]) -> dict[str, Any]:
        """Shared state for construct instance *key*, created by the first
        arriving thread."""
        with self._lock:
            state = self._workshares.get(key)
            if state is None:
                state = factory()
                self._workshares[key] = state
            return state

    # ------------------------------------------------------------ exceptions

    def record_exception(self, thread_num: int, exc: BaseException) -> None:
        with self._lock:
            self._exceptions.append((thread_num, exc))

    @property
    def exceptions(self) -> list[tuple[int, BaseException]]:
        with self._lock:
            return list(self._exceptions)

    def __repr__(self) -> str:
        return f"<Team threads={self.num_threads} level={self.level}>"
