"""Worksharing constructs: ``for`` (static/dynamic/guided), ``sections``,
``single``, ``master``.

All constructs must be encountered by every member of the innermost team (an
OpenMP program requirement); shared construct state is matched by arrival
order via :meth:`Team.next_workshare_key`.  Each construct ends with an
implied team barrier unless ``nowait`` is requested.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterable, Sequence

from .reduction import REDUCTIONS, identity_for
from .team import current_context

__all__ = [
    "for_loop",
    "sections",
    "single",
    "master",
    "ordered",
    "static_chunks",
    "WorksharingError",
]


class WorksharingError(RuntimeError):
    """A worksharing construct was used outside a parallel region, or with
    invalid parameters."""


def _require_context():
    ctx = current_context()
    if ctx is None:
        raise WorksharingError(
            "worksharing construct used outside a parallel region; "
            "wrap the call in repro.openmp.parallel(...)"
        )
    return ctx


def static_chunks(n: int, n_threads: int, chunk: int | None = None) -> list[list[range]]:
    """The static schedule's iteration map: per-thread lists of ranges.

    With ``chunk=None``, iterations split into one contiguous block per
    thread (OpenMP's default static).  With an explicit chunk size, blocks
    are dealt round-robin.
    """
    if n < 0:
        raise ValueError("iteration count must be >= 0")
    if chunk is None:
        base, extra = divmod(n, n_threads)
        out, start = [], 0
        for t in range(n_threads):
            size = base + (1 if t < extra else 0)
            out.append([range(start, start + size)] if size else [])
            start += size
        return out
    if chunk < 1:
        raise ValueError("chunk size must be >= 1")
    out = [[] for _ in range(n_threads)]
    for block_i, start in enumerate(range(0, n, chunk)):
        out[block_i % n_threads].append(range(start, min(start + chunk, n)))
    return out


_tls_ordered = threading.local()


def ordered(body: Callable[[], Any]) -> Any:
    """``#pragma omp ordered``: run *body* in ascending iteration order.

    Only valid inside the dynamic extent of a :func:`for_loop` called with
    ``ordered=True``; at most one ordered region per iteration (the OpenMP
    program requirement).  Iterations that skip the ordered region are
    handled — the turn advances when each iteration completes.
    """
    ctx = getattr(_tls_ordered, "ctx", None)
    if ctx is None:
        raise WorksharingError(
            "ordered used outside a for_loop(..., ordered=True) iteration"
        )
    state, index = ctx
    if state["ordered_next"] != index:  # wait for the turn in the one barrier
        team = current_context().team
        team.all_started.wait()
        team.target.pump_until(lambda: state["ordered_next"] == index, name="ordered")
    return body()


def _ordered_iteration_done(state: dict, index: int) -> None:
    """Mark iteration *index* complete; advance the turn past every finished
    iteration so skipped ordered regions never stall the loop."""
    with state["lock"]:
        state["ordered_done"].add(index)
        while state["ordered_next"] in state["ordered_done"]:
            state["ordered_done"].discard(state["ordered_next"])
            state["ordered_next"] += 1
    if state["ordered_target"] is not None:
        state["ordered_target"].wakeup()


def for_loop(
    iterations: int | Sequence[Any],
    body: Callable[[Any], Any],
    *,
    schedule: str = "static",
    chunk: int | None = None,
    nowait: bool = False,
    reduction: str | None = None,
    reduction_init: Any = None,
    ordered: bool = False,
) -> Any:
    """The ``omp for`` construct: distribute iterations over the team.

    Parameters
    ----------
    iterations:
        An iteration count (loop over ``range(n)``) or an indexable sequence.
    body:
        Called once per iteration with the item (or index).  With a
        reduction, its return values are combined.
    schedule:
        ``static`` (blocks decided up front), ``dynamic`` (threads grab the
        next chunk from a shared counter), or ``guided`` (dynamic with
        exponentially shrinking chunks).
    reduction:
        Name of a reduction operator (``'+'``, ``'*'``, ``'max'``, ``'min'``,
        ``'&&'``, ``'||'``); every thread folds its iterations locally and
        partials combine in thread order, so the result is deterministic for
        associative-commutative ops.

    Returns the reduction value (or None without a reduction).  Ends with an
    implied barrier unless ``nowait``; with a reduction the barrier is
    mandatory (the combined value must be complete for all threads).
    """
    ctx = _require_context()
    team = ctx.team
    if isinstance(iterations, int):
        n = iterations
        items: Sequence[Any] | None = None
    else:
        items = iterations
        n = len(items)

    if schedule == "runtime":
        # OpenMP's schedule(runtime): defer to the run-sched ICVs captured
        # by this region's team at fork time.
        schedule = team.icvs.run_sched_var
        if chunk is None:
            chunk = team.icvs.run_sched_chunk
    if schedule not in ("static", "dynamic", "guided"):
        raise WorksharingError(f"unknown schedule {schedule!r}")
    if reduction is not None and reduction not in REDUCTIONS:
        raise WorksharingError(f"unknown reduction operator {reduction!r}")
    if reduction is not None and nowait:
        raise WorksharingError("a reduction requires the implied barrier; drop nowait")

    key = team.next_workshare_key(ctx.thread_num)
    state = team.workshare_state(
        key,
        lambda: {
            "cursor": 0,
            "lock": threading.Lock(),
            "partials": [None] * team.num_threads,
            "ordered_next": 0,
            "ordered_done": set(),
            "ordered_target": team.target,
        },
    )

    op = REDUCTIONS[reduction] if reduction else None
    acc = reduction_init if reduction_init is not None else (
        identity_for(reduction) if reduction else None
    )

    def run(i: int) -> None:
        nonlocal acc
        if ordered:
            _tls_ordered.ctx = (state, i)
        try:
            value = body(items[i] if items is not None else i)
        finally:
            if ordered:
                _tls_ordered.ctx = None
                _ordered_iteration_done(state, i)
        if op is not None:
            acc = op(acc, value)

    if schedule == "static":
        for rng in static_chunks(n, team.num_threads, chunk)[ctx.thread_num]:
            for i in rng:
                run(i)
    else:
        min_chunk = max(1, chunk or 1)
        while True:
            with state["lock"]:
                cursor = state["cursor"]
                if cursor >= n:
                    break
                if schedule == "dynamic":
                    size = min_chunk
                else:  # guided: remaining / (2 * team size), floored at chunk
                    remaining = n - cursor
                    size = max(min_chunk, remaining // (2 * team.num_threads))
                state["cursor"] = cursor + size
            for i in range(cursor, min(cursor + size, n)):
                run(i)

    if op is not None:
        state["partials"][ctx.thread_num] = acc
        team.barrier()
        # Thread-order fold => deterministic result; every thread computes it
        # (same value), mirroring how OpenMP updates the shared variable.
        total = identity_for(reduction)
        for partial in state["partials"]:
            if partial is not None:
                total = op(total, partial)
        team.barrier()  # nobody may recycle state while others still read
        return total

    if not nowait:
        team.barrier()
    return None


def sections(
    section_bodies: Iterable[Callable[[], Any]], *, nowait: bool = False
) -> list[Any]:
    """The ``sections`` construct: each section body runs exactly once,
    distributed dynamically over the team.  Returns the list of section
    results (same order as given) on every thread."""
    ctx = _require_context()
    team = ctx.team
    bodies = list(section_bodies)
    key = team.next_workshare_key(ctx.thread_num)
    state = team.workshare_state(
        key,
        lambda: {"cursor": 0, "lock": threading.Lock(), "results": [None] * len(bodies)},
    )
    while True:
        with state["lock"]:
            i = state["cursor"]
            if i >= len(bodies):
                break
            state["cursor"] = i + 1
        state["results"][i] = bodies[i]()
    if not nowait:
        team.barrier()
    return state["results"]


def single(body: Callable[[], Any], *, nowait: bool = False) -> Any:
    """The ``single`` construct: first arriving thread runs *body*; all
    threads get its return value (a copyprivate-like convenience).  Implied
    barrier unless ``nowait`` — with nowait, non-executing threads get None
    immediately (they cannot see a value that may not exist yet)."""
    ctx = _require_context()
    team = ctx.team
    key = team.next_workshare_key(ctx.thread_num)
    state = team.workshare_state(
        key, lambda: {"claimed": False, "lock": threading.Lock(), "result": None}
    )
    with state["lock"]:
        mine = not state["claimed"]
        state["claimed"] = True
    if mine:
        state["result"] = body()
    if nowait:
        return state["result"] if mine else None
    team.barrier()
    return state["result"]


def master(body: Callable[[], Any]) -> Any:
    """The ``master`` construct: thread 0 only; no implied barrier."""
    ctx = _require_context()
    if ctx.thread_num == 0:
        return body()
    return None
