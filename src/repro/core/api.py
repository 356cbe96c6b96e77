"""Public, user-facing API of the virtual-target programming model.

Two styles are offered:

1. **Runtime functions** exactly mirroring the paper's Table II
   (:func:`virtual_target_register_edt`, :func:`virtual_target_create_worker`)
   plus :func:`run_on` as the direct equivalent of
   ``PjRuntime.invokeTargetBlock``.

2. **Decorators** (:func:`on_target`) marking whole functions as target
   blocks, which is how hand-written Python uses the model without the
   source-to-source compiler:

   .. code-block:: python

       virtual_target_create_worker("worker", 4)

       @on_target("worker", mode="nowait")
       def heavy():
           ...

       handle = heavy()       # posted to the worker pool, returns immediately

The compiler package (:mod:`repro.compiler`) rewrites ``#omp target
virtual(...)`` comment pragmas into :func:`run_on` calls, so everything funnels
through one dispatch path.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, TypeVar

from .directives import SchedulingMode
from .region import TargetRegion
from .runtime import PjRuntime, default_runtime
from .targets import EdtTarget, WorkerTarget

__all__ = [
    "virtual_target_register_edt",
    "virtual_target_create_worker",
    "virtual_target_create_process_worker",
    "virtual_target_create_cluster",
    "start_edt",
    "run_on",
    "on_target",
    "wait_for",
    "shutdown_all",
]

F = TypeVar("F", bound=Callable[..., Any])


def virtual_target_register_edt(tname: str, *, runtime: PjRuntime | None = None) -> EdtTarget:
    """Register the calling thread as a virtual target named *tname*.

    Paper Table II: *"The thread which invokes this function will be
    registered as a virtual target named tname."*  The caller keeps ownership
    of the thread and must drive the target's queue: ``run_forever``, or by
    hand with ``drain`` / ``pump_until`` (the barrier ``await`` itself uses).
    """
    return (runtime or default_runtime()).register_edt(tname)


def virtual_target_create_worker(
    tname: str, m: int, *, runtime: PjRuntime | None = None, **options: Any
) -> WorkerTarget:
    """Create a worker virtual target with a maximum of *m* threads.

    Paper Table II: *"Creating a worker virtual target with maximum of m
    threads, and its name is tname."*  *options* forwards the queue and
    scheduling-policy knobs of :meth:`PjRuntime.create_worker`
    (``queue_capacity``, ``rejection_policy``, ``steal``, ``batch_max``);
    see docs/TUNING.md for the policy reference.
    """
    return (runtime or default_runtime()).create_worker(tname, m, **options)


def virtual_target_create_process_worker(
    tname: str, m: int, *, runtime: PjRuntime | None = None, **options: Any
):
    """Create a worker virtual target backed by *m* supervised OS processes.

    The process counterpart of :func:`virtual_target_create_worker`: same
    name-based directive surface and scheduling clauses, but region bodies
    run outside this interpreter's GIL, so CPU-bound blocks scale with cores
    instead of serializing.  *options* forwards the arguments of
    :meth:`PjRuntime.create_process_worker` (``queue_capacity``,
    ``rejection_policy``, ``heartbeat_interval``).
    """
    return (runtime or default_runtime()).create_process_worker(tname, m, **options)


def virtual_target_create_cluster(
    tname: str,
    endpoints,
    *,
    shards: int = 1,
    runtime: PjRuntime | None = None,
    **options: Any,
):
    """Create a worker virtual target backed by remote cluster worker agents.

    The multi-host counterpart of :func:`virtual_target_create_worker` /
    :func:`virtual_target_create_process_worker`: the same name-based
    directive surface, but region bodies execute on agents started with
    ``python -m repro cluster-worker`` at the given ``host:port``
    *endpoints*, *shards* lanes per endpoint.  *options* forwards the
    arguments of :meth:`PjRuntime.create_cluster` (``queue_capacity``,
    ``rejection_policy``, ``heartbeat_interval``).
    """
    return (runtime or default_runtime()).create_cluster(
        tname, endpoints, shards=shards, **options
    )


def start_edt(tname: str, *, runtime: PjRuntime | None = None) -> EdtTarget:
    """Spawn a dedicated event-dispatch thread registered as *tname*.

    Convenience for headless programs and tests; GUI frameworks already own
    an EDT and use :func:`virtual_target_register_edt` instead.
    """
    return (runtime or default_runtime()).start_edt(tname)


def run_on(
    target: str | None,
    body: Callable[[], Any],
    *args: Any,
    mode: SchedulingMode | str = SchedulingMode.DEFAULT,
    tag: str | None = None,
    condition: bool = True,
    timeout: float | None = None,
    runtime: PjRuntime | None = None,
    source: str | None = None,
    **kwargs: Any,
) -> TargetRegion:
    """Execute *body* as a target block on the named virtual target.

    This is the library-level spelling of::

        #omp target virtual(<target>) [nowait | name_as(<tag>) | await]
        { body(*args, **kwargs) }

    ``condition=False`` corresponds to a false ``if`` clause: the block runs
    inline in the calling thread as if the directive were absent.

    Returns the :class:`TargetRegion` handle.  For the waiting modes
    (``default``/``await``) the region is already terminal on return and any
    exception from the body has been re-raised; *timeout* bounds those waits
    (the ``timeout(...)`` clause) and raises
    :class:`~repro.core.errors.AwaitTimeoutError` past the deadline.

    *source* optionally stamps the region with ``file:line`` provenance so
    trace spans (``repro.obs``) carry the user's code location; the
    source-to-source compiler fills it from the pragma position.
    """
    rt = runtime or default_runtime()
    region = TargetRegion(body, *args, source=source, **kwargs)
    if not condition:
        region.run()
        region.result()
        return region
    return rt.invoke_target_block(target, region, mode, tag=tag, timeout=timeout)


def on_target(
    target: str | None,
    mode: SchedulingMode | str = SchedulingMode.DEFAULT,
    *,
    tag: str | None = None,
    timeout: float | None = None,
    runtime: PjRuntime | None = None,
) -> Callable[[F], Callable[..., Any]]:
    """Decorator: every call of the function becomes a target block.

    For waiting modes the wrapper returns the function's return value (it is
    synchronous from the caller's perspective); for fire-and-forget modes it
    returns the :class:`TargetRegion` handle.
    """
    sched = SchedulingMode(mode) if isinstance(mode, str) else mode

    def decorate(fn: F) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            region = run_on(
                target, fn, *args, mode=sched, tag=tag, timeout=timeout,
                runtime=runtime, **kwargs
            )
            if sched.is_fire_and_forget:
                return region
            return region.result()

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    return decorate


def wait_for(
    tag: str,
    *,
    timeout: float | None = None,
    runtime: PjRuntime | None = None,
) -> None:
    """The ``wait(name-tag)`` clause: join every block posted under *tag*."""
    (runtime or default_runtime()).wait_tag(tag, timeout=timeout)


def shutdown_all(*, wait: bool = True, runtime: PjRuntime | None = None) -> None:
    """Shut down every virtual target of the (default) runtime."""
    (runtime or default_runtime()).shutdown(wait=wait)
