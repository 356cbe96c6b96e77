"""Figure 8 — asynchronous vs asynchronous-parallel event handling.

Paper §V-A second comparison: offloading alone (``target virtual``)
vs offloading combined with per-event ``omp parallel`` (3 worker threads) —
the *asynchronous parallel* mode the extended model enables.

Expected shape: async-parallel cuts each response's latency by roughly the
kernel's 3-thread speedup while cores are idle; as the request load
approaches machine saturation the advantage shrinks (parallelism cannot add
capacity, only reduce per-event span).
"""

from __future__ import annotations

import pytest

from repro.sim import GUI_KERNELS, figure8
from repro.sim.figures import RATES

PARALLEL_THREADS = 3  # figure8's default team


@pytest.mark.parametrize("kernel_name", sorted(GUI_KERNELS))
def test_fig8_async_vs_async_parallel(benchmark, report, kernel_name):
    data, lines = benchmark.pedantic(figure8, args=(kernel_name,), rounds=1, iterations=1)
    report(f"fig8_{kernel_name}", lines)
    kernel = GUI_KERNELS[kernel_name]

    # Low load: async-parallel approaches the kernel's ideal team speedup.
    ideal = kernel.speedup(PARALLEL_THREADS)
    gain_low = data["pyjama_async"][0] / data["async_parallel"][0]
    assert gain_low > 1.0
    assert gain_low <= ideal * 1.05
    assert gain_low >= ideal * 0.45  # handler fixed costs dilute the ideal

    # High load: if the sweep actually saturates the machine, the advantage
    # shrinks; for a kernel light enough that 100 req/s never fills the
    # 4 cores, the gain simply persists.
    gain_high = data["pyjama_async"][-1] / data["async_parallel"][-1]
    demand_at_top = RATES[-1] * kernel.serial_time
    if demand_at_top > 0.9 * 4:  # cores in GuiBenchConfig default
        assert gain_high < gain_low
    else:
        assert gain_high == pytest.approx(gain_low, rel=0.10)

    # Both async modes beat sequential once the EDT saturates.
    sat_idx = next(
        (i for i, r in enumerate(RATES) if r > 1.3 / kernel.serial_time), None
    )
    if sat_idx is not None:
        assert data["pyjama_async"][sat_idx] < data["sequential"][sat_idx]
        assert data["async_parallel"][sat_idx] < data["sequential"][sat_idx]
