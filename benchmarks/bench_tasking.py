"""Micro-benchmarks — OpenMP tasks vs virtual-target dispatch.

The paper's motivating contrast (§I): OpenMP tasks are confined to parallel
regions, while target blocks dispatch from anywhere.  These benchmarks
quantify both mechanisms' overheads on real threads:

* orphaned task (sequential inline execution — what confinement degrades to),
* deferred task spawn+taskwait inside a team,
* a virtual-target nowait dispatch for comparison.
"""

from __future__ import annotations

import repro.openmp as omp
from repro.core import PjRuntime


def test_task_orphaned_inline(benchmark):
    """Orphaned task outside any parallel region: runs inline, sequentially."""
    benchmark(lambda: omp.task(lambda: 1).result())


def test_task_deferred_spawn_and_taskwait(benchmark):
    """8 deferred tasks spawned via single-nowait inside a 2-thread team,
    then a taskwait barrier."""

    def region():
        def body():
            def spawn():
                for _ in range(8):
                    omp.task(lambda: 1)

            omp.single(spawn, nowait=True)
            omp.taskwait()

        omp.parallel(body, num_threads=2)

    benchmark(region)


def _target_nowait_batch():
    """The virtual-target counterpart: 8 nowait dispatches then a join."""
    rt = PjRuntime()
    rt.create_worker("worker", 2)

    def dispatch_batch():
        handles = [
            rt.invoke_target_block("worker", lambda: 1, "nowait") for _ in range(8)
        ]
        for h in handles:
            h.wait(5)

    return dispatch_batch, lambda: rt.shutdown(wait=False)


def test_target_nowait_dispatch_for_comparison(time_setup):
    time_setup(_target_nowait_batch)


def test_region_fork_join_overhead(benchmark):
    """The cost the EDT would pay per sync-parallel event (paper §V-A)."""
    benchmark(lambda: omp.parallel(lambda: None, num_threads=4))
