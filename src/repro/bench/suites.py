"""Built-in benchmark registrations: the real-thread micro-set.

Importing this module populates the registry with the dispatch paths
Algorithm 1 takes (posted, inline, fire-and-forget, await from a member),
the pure queue hand-off, region construction and a worker's lifecycle —
the measurements ``benchmarks/e2e/layers.py`` has no probe for.  What it
does probe (tracing overhead, process and cluster round trips, the live
server) is timed there and nowhere else.  The figure/table benchmarks
under ``benchmarks/`` register their own entries on top when imported
(``load_external``).

Measurement notes
-----------------
* ``queue_*`` benchmarks post to an *unstarted* EDT target and drain it in
  the measuring thread: one thread, no scheduler hand-off, so they isolate
  the enqueue/dequeue/dispatch cost itself.
* ``dispatch_*`` benchmarks use a live two-thread worker target: they
  include the real cross-thread wake-up, which is what an application
  pays.  Noisier; compare p50s.
"""

from __future__ import annotations

import importlib
import pkgutil

from .harness import benchmark

__all__ = ["load_builtin", "load_external"]


def _nop() -> None:
    return None


# ------------------------------------------------------------- dispatch group

@benchmark(
    "dispatch_default", group="dispatch", number=20,
    description="Algorithm 1 default mode: post to a warm worker + wait",
)
def _dispatch_default():
    from ..core import PjRuntime

    rt = PjRuntime()
    rt.create_worker("w", 2)
    op = lambda: rt.invoke_target_block("w", _nop)  # noqa: E731
    return op, lambda: rt.shutdown(wait=False)


@benchmark(
    "dispatch_nowait", group="dispatch", number=200,
    description="Algorithm 1 nowait: fire-and-forget post to a warm worker",
)
def _dispatch_nowait():
    from ..core import PjRuntime

    rt = PjRuntime()
    rt.create_worker("w", 2)
    op = lambda: rt.invoke_target_block("w", _nop, "nowait")  # noqa: E731
    return op, lambda: rt.shutdown(wait=False)


@benchmark(
    "dispatch_inline", group="dispatch", number=20,
    description="context-aware inline elision: dispatch from a member thread",
)
def _dispatch_inline():
    from ..core import PjRuntime

    rt = PjRuntime()
    rt.create_worker("w", 2)

    def member_dispatch():
        # Outer hop is posted; the inner 200 dispatches are the measured
        # inline elisions (Algorithm 1 lines 6-7) amortized per op.
        def nested():
            for _ in range(200):
                rt.invoke_target_block("w", _nop)

        rt.invoke_target_block("w", nested)

    return member_dispatch, lambda: rt.shutdown(wait=False)


@benchmark(
    "dispatch_await_member", group="dispatch", number=10,
    description="await logical barrier taken from a pool member thread",
)
def _dispatch_await_member():
    from ..core import PjRuntime

    rt = PjRuntime()
    rt.create_worker("w", 2)
    rt.await_poll_var = 0.001

    def member_await():
        def outer():
            rt.invoke_target_block("w", _nop, "await")

        rt.invoke_target_block("w", outer)

    return member_await, lambda: rt.shutdown(wait=False)


# ---------------------------------------------------------------- queue group

@benchmark(
    "queue_post_drain", group="queue", number=300, tags=("smoke",),
    description="single-thread enqueue + dequeue + run on an unpumped EDT",
)
def _queue_post_drain():
    from ..core import PjRuntime
    from ..core.region import TargetRegion

    rt = PjRuntime()
    target = rt.register_edt("q")

    def op():
        target.post(TargetRegion(_nop))
        target.drain()

    return op, lambda: rt.shutdown(wait=False)


@benchmark(
    "region_create", group="queue", number=1000, tags=("smoke",),
    description="TargetRegion construction (the per-dispatch allocation cost)",
)
def _region_create():
    from ..core.region import TargetRegion

    return lambda: TargetRegion(_nop)


# ------------------------------------------------------------- lifecycle group

@benchmark(
    "worker_lifecycle", group="lifecycle", number=1, slow=True,
    description="create a 2-thread worker, run 10 regions, drain-shutdown",
)
def _worker_lifecycle():
    from ..core import PjRuntime

    def op():
        rt = PjRuntime()
        rt.create_worker("w", 2)
        handles = [rt.invoke_target_block("w", _nop, "nowait") for _ in range(10)]
        rt.shutdown(wait=True)
        for h in handles:
            h.wait(5)

    return op


# ------------------------------------------------------------------- loaders

def load_builtin() -> None:
    """Importing this module *is* the registration; kept for symmetry."""


def load_external(package: str = "benchmarks") -> list[str]:
    """Import every ``bench_*`` module of *package* so its registrations run.

    The figure/table scripts under ``benchmarks/`` each register thin
    harness entries at import time while keeping their pytest entry points.
    Returns the imported module names; missing package or per-module import
    errors (e.g. pytest absent in a production install) are skipped —
    the built-in suite above never depends on them.
    """
    try:
        pkg = importlib.import_module(package)
    except ImportError:
        return []
    loaded = []
    for mod in pkgutil.iter_modules(pkg.__path__):
        if not mod.name.startswith("bench_"):
            continue
        try:
            importlib.import_module(f"{package}.{mod.name}")
        except Exception:  # noqa: BLE001 - optional deps must not kill the CLI
            continue
        loaded.append(mod.name)
    return loaded
