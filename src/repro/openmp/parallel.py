"""The ``parallel`` construct: fork a team, run the body per thread, join.

Faithful to the semantics the paper leans on:

* the encountering thread is the master (thread 0) and executes the body —
  it does **not** return until every team member finished (the synchronous
  "join" the paper calls out as incompatible with event loops; there is no
  ``nowait`` on ``parallel``);
* the join is OpenMP's implicit barrier too: the region's tasks have finished;
* an ``if`` clause false-value serialises the region (team of 1);
* nesting honours ``nest_var`` and ``max_active_levels_var``.

Members 1..n-1 are regions on a *hot team*, a :class:`WorkerTarget` leased
from a per-size free list by one region at a time; the master joins it as a
guest, so its own ``current_target()`` (an EDT's, say) is left alone.

Exceptions raised by any team member are collected and re-raised in the
master after the join as :class:`ParallelRegionError`.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Callable

from ..core.region import TargetRegion
from ..core.targets import WorkerTarget
from .icv import ICVs, global_icvs
from .team import Team, ThreadContext, current_context, pop_context, push_context

__all__ = ["ParallelRegionError", "parallel"]

THREAD_LIMIT = 256  # OpenMP's thread-limit-var


class ParallelRegionError(Exception):
    """One or more team members raised inside a parallel region."""

    def __init__(self, failures: list[tuple[int, BaseException]]):
        self.failures = failures
        summary = "; ".join(f"thread {tid}: {exc!r}" for tid, exc in failures)
        super().__init__(f"parallel region failed: {summary}")
        if failures:
            self.__cause__ = failures[0][1]


# Idle hot teams by lane count (list pop/append are atomic under the GIL).
_idle: dict[int, list[WorkerTarget]] = {}
_hot_team_ids = itertools.count()


def _resolve_team_size(num_threads: int | None, icvs: ICVs, level: int) -> int:
    if num_threads is not None:
        if num_threads < 1:
            raise ValueError("num_threads must be >= 1")
        requested = num_threads
    else:
        requested = icvs.nthreads_var
    if level > icvs.max_active_levels_var or (level > 1 and not icvs.nest_var):
        return 1
    return min(requested, THREAD_LIMIT)


def parallel(
    body: Callable[..., Any],
    *,
    num_threads: int | None = None,
    if_clause: bool = True,
) -> list[Any]:
    """Execute ``body`` in a freshly forked team; returns per-thread results.

    ``body`` is called once per team member.  If it accepts a positional
    argument it receives the thread number; otherwise it is called with no
    arguments and may query :func:`repro.openmp.omp_get_thread_num`.

    Returns the list of return values indexed by thread number (a convenience
    over OpenMP, where results travel through shared state).
    """
    parent = current_context()
    level = (parent.team.level + 1) if parent else 1
    region_icvs = global_icvs().copy()

    size = _resolve_team_size(num_threads, region_icvs, level) if if_clause else 1
    team = Team(size, region_icvs, level)
    results: list[Any] = [None] * size

    wants_tid = _accepts_positional(body)
    started = itertools.count(1)

    def run_as(thread_num: int) -> None:
        push_context(ThreadContext(team, thread_num))
        team.thread_nums[threading.get_ident()] = thread_num
        if next(started) == size:
            team.all_started.set()
        elif thread_num:  # a lane: no pump of its own may meet a queued member
            team.all_started.wait()
        try:
            results[thread_num] = body(thread_num) if wants_tid else body()
        except BaseException as exc:  # noqa: BLE001 - reported after join
            team.record_exception(thread_num, exc)
            # Keep barrier-using teams from deadlocking: a dead member must
            # not leave others waiting forever.
            team._barrier.abort()
        finally:
            pop_context()

    if size == 1:
        run_as(0)
    else:
        try:
            target = team.target = _idle.setdefault(size - 1, []).pop()
        except IndexError:
            target = team.target = WorkerTarget(f"omp-team{next(_hot_team_ids)}", size - 1)
        target._enter_member(threading.current_thread())  # a guest
        members = [TargetRegion(run_as, tid) for tid in range(1, size)]
        for member in members:
            target.post(member)
        run_as(0)  # the master participates — the fork-join property
        for member in members:
            member.wait()  # the synchronous join; no nowait exists on parallel
        if team.tasks:  # the implicit barrier's tasks, before the team is reused
            target.pump_until(lambda: not team.tasks, name="parallel")
        target._exit_member()
        _idle[size - 1].append(target)

    failures = team.exceptions
    if failures:
        raise ParallelRegionError(failures)
    return results


def _accepts_positional(fn: Callable[..., Any]) -> bool:
    import inspect

    try:
        sig = inspect.signature(fn)
    except (TypeError, ValueError):
        return False
    for p in sig.parameters.values():
        if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD):
            return True
        if p.kind is p.VAR_POSITIONAL:
            return True
    return False
