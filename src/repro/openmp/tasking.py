"""The ``task`` construct — the paper's §I foil.

The paper motivates virtual targets by the limits of OpenMP tasks: *"a block
surrounded by a task directive will be asynchronously executed by the OpenMP
thread group; an orphaned task directive will execute sequentially unless it
is surrounded by a parallel directive.  This means the effectiveness of
OpenMP tasks are confined within an OpenMP parallel region."*

This module implements exactly that confined behaviour so the contrast is
demonstrable in code:

* inside a parallel region, :func:`task` defers the block to the team's
  shared task pool; team members execute pending tasks at :func:`taskwait`
  and at team barriers;
* an *orphaned* task (no enclosing region, or a serialised team of one)
  executes immediately, sequentially, in the encountering thread.

A :func:`taskwait` waits for the deferred children of the current task
(the region body's implicit task, or the deferred task the thread is
running), helping execute pending team tasks meanwhile.  ``untied`` and
task dependencies are out of scope.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

from .team import Team, current_context

__all__ = ["task", "taskwait", "TaskHandle"]


class TaskHandle:
    """Completion handle for a deferred task."""

    __slots__ = ("_done", "_result", "_error", "deferred", "parent", "children")

    def __init__(self, deferred: bool, parent: Any = None) -> None:
        self._done = threading.Event()
        self._result: Any = None
        self._error: BaseException | None = None
        self.deferred = deferred
        #: The task (handle or implicit-task context) whose ``children``
        #: counts this one while it is unfinished.
        self.parent = parent
        #: Deferred children of this task not yet finished.
        self.children = 0

    def _finish(self, result: Any, error: BaseException | None) -> None:
        self._result = result
        self._error = error
        self._done.set()

    @property
    def done(self) -> bool:
        return self._done.is_set()

    def result(self, timeout: float | None = None) -> Any:
        if not self._done.wait(timeout):
            raise TimeoutError("task not finished")
        if self._error is not None:
            raise self._error
        return self._result


def _run_task(body: Callable[[], Any], handle: TaskHandle) -> None:
    try:
        result = body()
    except BaseException as exc:  # noqa: BLE001 - reported via the handle
        handle._finish(None, exc)
    else:
        handle._finish(result, None)


def task(body: Callable[[], Any], *, if_clause: bool = True) -> TaskHandle:
    """``#pragma omp task``: defer *body* to the team's task pool.

    Orphaned (no enclosing parallel region / team of one) or with a false
    ``if`` clause, the body runs immediately and sequentially — the paper's
    point about task's confinement.
    """
    ctx = current_context()
    if ctx is None or ctx.team.num_threads == 1 or not if_clause:
        handle = TaskHandle(deferred=False)
        _run_task(body, handle)
        return handle
    team = ctx.team
    handle = TaskHandle(deferred=True, parent=ctx.task or ctx)
    with team._lock:
        handle.parent.children += 1
        team._task_pool.append((body, handle))
        team._tasks_changed.notify_all()
    return handle


def _drain(team: Team) -> int:
    """Execute pending team tasks in the calling thread until the pool is
    empty; returns the number executed."""
    ctx = current_context()
    pool = team._task_pool
    executed = 0
    while True:
        with team._lock:
            if not pool:
                return executed
            body, handle = pool.popleft()
        outer, ctx.task = ctx.task, handle
        try:
            _run_task(body, handle)
        finally:
            ctx.task = outer
        with team._lock:
            handle.parent.children -= 1
            team._tasks_changed.notify_all()
        executed += 1


def taskwait(timeout: float | None = 30.0) -> int:
    """``#pragma omp taskwait``: help execute pending tasks until every
    deferred child of the current task has finished.  Returns the number
    this thread executed.

    Outside a parallel region this is a no-op (there can be no deferred
    tasks).
    """
    ctx = current_context()
    if ctx is None:
        return 0
    team = ctx.team
    waiter = ctx.task or ctx
    deadline = None if timeout is None else time.monotonic() + timeout
    executed = 0
    while True:
        executed += _drain(team)
        with team._lock:
            if not waiter.children:
                return executed
            if team._task_pool:
                continue  # queued since the drain: help with it first
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                raise TimeoutError("taskwait timed out")
            # A child still runs on another thread: sleep until a task
            # finishes or is queued.
            team._tasks_changed.wait(remaining)


def drain_tasks_at_barrier(team: Team) -> None:
    """Hook for barrier integration: execute pending tasks before blocking.

    OpenMP guarantees all tasks complete at a barrier; team barriers call
    this first.
    """
    _drain(team)
