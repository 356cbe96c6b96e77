"""Java Grande kernel timings on this host (real computation, size A).

Not a paper figure by itself — these timings ground the simulator's cost
models (see ``repro.sim.costmodel.calibrate_from_host``) and document what
one event handler costs in our Python ports.
"""

from __future__ import annotations

import pytest

from repro.kernels import KERNELS, get_kernel


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_kernel_sequential_size_a(benchmark, name):
    spec = get_kernel(name)
    size = spec.sizes["A"]
    benchmark(spec.run_sequential, size)


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_kernel_single_chunk_of_four(benchmark, name):
    """One quarter of the kernel — the per-thread share of a 4-way team."""
    spec = get_kernel(name)
    size = spec.sizes["A"]
    benchmark(spec.run_chunk, size, 0, 4)
