"""The ``task`` construct — the paper's §I foil.

The paper motivates virtual targets by the limits of OpenMP tasks: *"a block
surrounded by a task directive will be asynchronously executed by the OpenMP
thread group; an orphaned task directive will execute sequentially unless it
is surrounded by a parallel directive.  This means the effectiveness of
OpenMP tasks are confined within an OpenMP parallel region."*

This module implements exactly that confined behaviour so the contrast is
demonstrable in code:

* inside a parallel region, :func:`task` posts the block as a target region
  to the team's target; its lanes, and members at :func:`taskwait` and team
  barriers, run it, and the region ends only after it has;
* an *orphaned* task (no enclosing region, or a serialised team of one)
  executes immediately, sequentially, in the encountering thread.

A :func:`taskwait` waits for the deferred children of the current task
(the region body's implicit task, or the deferred task the thread is
running), pumping the team's target meanwhile.  ``untied`` and task
dependencies are out of scope.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from ..core.region import TargetRegion
from .team import Team, ThreadContext, current_context, pop_context, push_context

__all__ = ["task", "taskwait", "TaskHandle"]


class TaskHandle:
    """Completion handle for a task: a view over its target region."""

    __slots__ = ("region", "deferred", "children")

    def __init__(self, region: TargetRegion, deferred: bool) -> None:
        self.region = region
        self.deferred = deferred
        #: Deferred children of this task not yet finished.
        self.children = 0

    @property
    def done(self) -> bool:
        return self.region.done

    def result(self, timeout: float | None = None) -> Any:
        """The body's return value; re-raises the body's own exception."""
        region = self.region
        if not region.wait(timeout):
            raise TimeoutError("task not finished")
        if region.exception is not None:
            raise region.exception
        return region.result()


def _run_deferred(team: Team, handle: TaskHandle, body: Callable[[], Any]) -> Any:
    """A deferred task's region body: the current task of the team thread
    that dequeued it, counted as run by the context it pumped from."""
    outer = current_context()
    if outer is not None:
        outer.ran += 1
    ctx = ThreadContext(team, team.thread_nums.get(threading.get_ident(), 0))
    ctx.task = handle
    push_context(ctx)
    try:
        return body()
    finally:
        pop_context()


def task(body: Callable[[], Any], *, if_clause: bool = True) -> TaskHandle:
    """``#pragma omp task``: post *body* to the team's target.

    Orphaned (no enclosing parallel region / team of one) or with a false
    ``if`` clause, the body runs immediately and sequentially — the paper's
    point about task's confinement.
    """
    ctx = current_context()
    if ctx is None or ctx.team.num_threads == 1 or not if_clause:
        region = TargetRegion(body)
        region.run()
        return TaskHandle(region, deferred=False)
    team = ctx.team
    parent = ctx.task or ctx  # the task whose ``children`` count this one
    handle = TaskHandle(TargetRegion(lambda: _run_deferred(team, handle, body)), True)

    def finished(_region: TargetRegion) -> None:
        with team._lock:
            parent.children -= 1
            team.tasks -= 1
        team.target.wakeup()

    handle.region.add_done_callback(finished)
    with team._lock:
        parent.children += 1
        team.tasks += 1
    team.target.post(handle.region)
    return handle


def taskwait(timeout: float | None = 30.0) -> int:
    """``#pragma omp taskwait``: run queued team tasks until every deferred
    child of the current task has finished.  Returns the number of tasks
    this thread ran meanwhile.

    Outside a parallel region this is a no-op (there can be no deferred
    tasks).  Past *timeout*: :class:`~repro.core.errors.AwaitTimeoutError`,
    a ``TimeoutError``.
    """
    ctx = current_context()
    if ctx is None:
        return 0
    waiter = ctx.task or ctx
    ran = ctx.ran
    if waiter.children:
        ctx.team.all_started.wait()
        ctx.team.target.pump_until(
            lambda: not waiter.children, timeout=timeout, name="taskwait"
        )
    return ctx.ran - ran
