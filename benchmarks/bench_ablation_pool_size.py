"""Ablation — worker-pool sizing for GUI offloading (the SwingWorker bound).

The paper points out SwingWorker's hard-coded 10-thread pool.  On a 4-core
machine, is 10 a good number?  This ablation sweeps the offload pool size at
a saturating request load: undersized pools queue; oversized pools
oversubscribe the cores (visible once the per-event work is parallel).
"""

from __future__ import annotations

from repro.sim import GUI_KERNELS, GuiBenchConfig, run_gui_benchmark

POOL_SIZES = [1, 2, 4, 8, 10, 16, 32]
RATE = 95.0
N_EVENTS = 200


def sweep() -> dict[str, list[float]]:
    out: dict[str, list[float]] = {"plain": [], "parallel": []}
    for size in POOL_SIZES:
        plain = run_gui_benchmark(
            GuiBenchConfig(
                approach="executor",
                kernel=GUI_KERNELS["crypt"],
                rate=RATE,
                n_events=N_EVENTS,
                worker_pool=size,
            )
        )
        out["plain"].append(plain.response.mean * 1000)
        par = run_gui_benchmark(
            GuiBenchConfig(
                approach="async_parallel",
                kernel=GUI_KERNELS["crypt"],
                rate=RATE,
                n_events=N_EVENTS,
                worker_pool=size,
                parallel_threads=3,
            )
        )
        out["parallel"].append(par.response.mean * 1000)
    return out


def test_ablation_pool_size(benchmark, report):
    data = benchmark.pedantic(sweep, rounds=1, iterations=1)

    header = f"{'pool':>6} | {'offload (ms)':>12} | {'offload+par (ms)':>16}"
    lines = [
        f"Ablation: offload pool size at {RATE:.0f} req/s (crypt, 4 cores)",
        header,
        "-" * len(header),
    ]
    for i, size in enumerate(POOL_SIZES):
        lines.append(
            f"{size:>6} | {data['plain'][i]:>12.1f} | {data['parallel'][i]:>16.1f}"
        )
    report("ablation_pool_size", lines)

    plain = dict(zip(POOL_SIZES, data["plain"]))
    par = dict(zip(POOL_SIZES, data["parallel"]))

    # Undersized pools queue badly: 1 thread is far worse than 4.
    assert plain[1] > 5 * plain[4]
    # At/above the core count, plain offloading stops improving much.
    assert plain[10] >= plain[4] * 0.8
    # With per-event parallel teams, oversizing the pool multiplies the
    # runnable threads and hurts: 32 workers x 3-thread teams on 4 cores.
    assert par[32] >= par[4]
