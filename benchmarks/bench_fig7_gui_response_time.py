"""Figure 7 — GUI event handling: average response time vs request load.

Paper §V-A: per kernel (Crypt, RayTracer, MonteCarlo, Series), events fired
at 10..100 requests/sec; approaches compared: sequential, SwingWorker,
ExecutorService, Pyjama, plus the synchronous-parallel variant ("in default
using 3 worker threads").

We regenerate the series on the simulated quad-core i5 and assert the
paper's qualitative results:

1. the sequential EDT's response time explodes once the load passes its
   saturation rate (1 / kernel time);
2. every offloading approach stays near the unloaded handler latency far
   beyond that point;
3. Pyjama is "equal and often superior to manual implementations";
4. the sync-parallel EDT saturates earlier than the offloading approaches.
"""

from __future__ import annotations

import pytest

from repro.sim import GUI_KERNELS, figure7
from repro.sim.figures import RATES


@pytest.mark.parametrize("kernel_name", sorted(GUI_KERNELS))
def test_fig7_response_time_vs_load(benchmark, report, kernel_name):
    data, lines = benchmark.pedantic(figure7, args=(kernel_name,), rounds=1, iterations=1)
    report(f"fig7_{kernel_name}", lines)
    kernel = GUI_KERNELS[kernel_name]

    saturation = 1.0 / kernel.serial_time
    below = [r for r in RATES if r < 0.8 * saturation]
    above = [r for r in RATES if r > 1.3 * saturation]
    if below and above:
        i_lo, i_hi = RATES.index(below[-1]), RATES.index(above[0])
        # (1) sequential explodes past saturation
        assert data["sequential"][i_hi] > 5 * data["sequential"][i_lo]
        # (2) offloading approaches stay flat there
        for approach in ("swingworker", "executor", "pyjama_async"):
            assert data[approach][i_hi] < 2.5 * data[approach][i_lo]
            assert data[approach][i_hi] < data["sequential"][i_hi] / 3
    # (3) Pyjama tracks the best manual approach everywhere
    for i in range(len(RATES)):
        best_manual = min(data["swingworker"][i], data["executor"][i])
        assert data["pyjama_async"][i] <= best_manual * 1.10
    # (4) sync-parallel degrades before the async approaches once the load
    # exceeds what a 4-way parallel handler on the EDT can keep up with
    # (for the lightest kernel the sweep never reaches that point).
    sync_capacity = 1.0 / kernel.span(4)
    if RATES[-1] > 1.1 * sync_capacity:
        assert data["sync_parallel"][-1] > data["pyjama_async"][-1]
