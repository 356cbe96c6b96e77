"""Process-backed vs thread-backed targets on real kernels.

The dividend the dist layer exists to pay: a CPU-bound kernel split across a
*process* pool escapes the GIL, while the same split across a *thread* pool
serializes on it (numpy sections release the GIL, pure-Python bookkeeping
does not).  This benchmark runs montecarlo and SOR chunks through identical
directive-level code against both backends at pool sizes 1/2/4 and archives
the timings as machine-readable JSON
(``benchmarks/results/process_vs_thread.json``) for EXPERIMENTS.md.

Honesty note: the speedup assertion is gated on the host actually having
more than one usable core.  On a single-core container the process pool
cannot beat the one-thread baseline no matter how well the runtime works —
the JSON records ``host.usable_cores`` so a reader can tell the two apart.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pathlib
import time

import pytest

from repro.core import PjRuntime
from repro.core.region import TargetRegion
from repro.dist import DEFAULT_START_METHOD
from repro.dist.wire import HAVE_CLOUDPICKLE
from repro.kernels.montecarlo import MonteCarloConfig, simulate_paths
from repro.kernels.sor import run as sor_run

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Work is always split into this many chunks, whatever the pool size —
#: the split is the directive-level constant, the pool is the resource knob.
N_CHUNKS = 4
POOL_SIZES = (1, 2, 4)

_MC_CFG = MonteCarloConfig(n_paths=600, n_steps=400)
_SOR_N = 120
_SOR_ITERS = 60


def mc_chunk(chunk_index: int) -> float:
    """One quarter of the montecarlo path sweep (module-level: picklable)."""
    count = _MC_CFG.n_paths // N_CHUNKS
    result = simulate_paths(_MC_CFG, chunk_index * count, count)
    return result.mean_final_price


def sor_chunk(chunk_index: int) -> float:
    """One independent SOR relaxation (distinct seed per chunk)."""
    grid = sor_run(_SOR_N, iterations=_SOR_ITERS, seed=20160816 + chunk_index)
    return float(grid.sum())


KERNELS = {"montecarlo": mc_chunk, "sor": sor_chunk}


def usable_cores() -> int:
    """Cores this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _time_backend(backend: str, pool: int, chunk_fn) -> float:
    rt = PjRuntime()
    try:
        if backend == "process":
            rt.create_process_worker("bench", pool)
        else:
            rt.create_worker("bench", pool)
        # Warmup: absorbs worker-process spawn + import cost so the timing
        # measures steady-state execution, the regime that matters.  Wait
        # for the whole pool to come up, not just one lane.
        if backend == "process":
            target = rt.get_target("bench")
            deadline = time.monotonic() + 120.0
            while (
                any(pid is None for pid in target.worker_pids)
                and time.monotonic() < deadline
            ):
                time.sleep(0.02)
        # One warmup chunk per lane: every worker pays its first-use costs
        # (kernel module import, allocator warm-up) outside the timed window.
        warmups = [
            rt.invoke_target_block("bench", TargetRegion(chunk_fn, 0), "nowait")
            for _ in range(pool)
        ]
        for handle in warmups:
            handle.result(timeout=300)
        start = time.perf_counter()
        handles = [
            rt.invoke_target_block("bench", TargetRegion(chunk_fn, i), "nowait")
            for i in range(N_CHUNKS)
        ]
        for handle in handles:
            handle.result(timeout=300)
        return time.perf_counter() - start
    finally:
        rt.shutdown(wait=False)


def test_process_vs_thread_kernels(capsys):
    cores = usable_cores()
    runs = []
    lines = [f"{'kernel':<12} {'backend':<8} {'pool':>4} {'seconds':>9} {'vs thread@1':>11}"]
    for kernel, chunk_fn in KERNELS.items():
        baseline = None
        for backend in ("thread", "process"):
            for pool in POOL_SIZES:
                seconds = _time_backend(backend, pool, chunk_fn)
                if backend == "thread" and pool == 1:
                    baseline = seconds
                speedup = baseline / seconds if baseline else None
                runs.append({
                    "kernel": kernel, "backend": backend, "pool": pool,
                    "chunks": N_CHUNKS, "seconds": round(seconds, 4),
                    "speedup_vs_thread1": round(speedup, 3) if speedup else None,
                })
                lines.append(
                    f"{kernel:<12} {backend:<8} {pool:>4} {seconds:>9.3f} "
                    f"{(f'{speedup:.2f}x' if speedup else '--'):>11}"
                )
    doc = {
        "benchmark": "process_vs_thread",
        "host": {
            "cpu_count": os.cpu_count(),
            "usable_cores": cores,
            "start_method_default": DEFAULT_START_METHOD,
            "available_start_methods": multiprocessing.get_all_start_methods(),
            "cloudpickle": HAVE_CLOUDPICKLE,
        },
        "workload": {
            "chunks": N_CHUNKS,
            "montecarlo": {"n_paths": _MC_CFG.n_paths, "n_steps": _MC_CFG.n_steps},
            "sor": {"n": _SOR_N, "iterations": _SOR_ITERS},
        },
        "runs": runs,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "process_vs_thread.json").write_text(
        json.dumps(doc, indent=2) + "\n"
    )
    lines.append(f"host: cpu_count={os.cpu_count()} usable_cores={cores}")
    with capsys.disabled():
        print("\n" + "\n".join(lines))

    if cores >= 2:
        # With real parallelism available, the process pool must beat the
        # single-thread baseline on the CPU-bound kernel.
        for kernel in KERNELS:
            thread1 = next(
                r["seconds"] for r in runs
                if r["kernel"] == kernel and r["backend"] == "thread" and r["pool"] == 1
            )
            best_proc = min(
                r["seconds"] for r in runs
                if r["kernel"] == kernel and r["backend"] == "process"
            )
            assert best_proc < thread1, (
                f"{kernel}: process pool ({best_proc:.3f}s) failed to beat "
                f"the 1-thread baseline ({thread1:.3f}s) on a {cores}-core host"
            )
    else:
        pytest.skip(
            f"speedup assertion needs >= 2 usable cores, host has {cores} "
            "(timings recorded in process_vs_thread.json regardless)"
        )
