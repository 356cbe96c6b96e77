"""Kernel harness: uniform interface over the four Java Grande kernels.

The evaluation (paper §V-A) binds each GUI event to one kernel execution and
optionally parallelises the kernel body with classic OpenMP directives.  The
harness gives every kernel the same three entry points:

* ``run_sequential(size)`` — the whole kernel in the calling thread;
* ``run_chunk(size, chunk_id, n_chunks)`` — one independent piece, so the
  worksharing layer (or a worker virtual target) can split the kernel;
* ``validate(size)`` — the kernel's own correctness check.

Sizes follow Java Grande's A/B/C convention, scaled down so a single event
handler costs on the order of 10-100 ms in pure Python — the magnitude the
paper targets ("even computations lasting only a few hundred milliseconds").
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from . import crypt, montecarlo, raytracer, series, sor

__all__ = [
    "KernelSpec",
    "KERNELS",
    "kernel_names",
    "paper_kernel_names",
    "get_kernel",
    "time_kernel",
]


@dataclass(frozen=True)
class KernelSpec:
    """Uniform kernel description.

    ``in_paper`` marks the four kernels the paper's §V-A evaluation selects;
    the registry also carries one extension kernel from the same Java Grande
    suite (SOR), which the worksharing examples and benchmarks run.
    """

    name: str
    sizes: dict[str, Any]
    run_sequential: Callable[[Any], Any]
    run_chunk: Callable[[Any, int, int], Any]
    validate: Callable[[Any], bool]
    description: str = ""
    in_paper: bool = True
    #: What stitched chunks should equal.  None = the sequential result
    #: (flattened); phase-parallel kernels (SOR) provide their own, because
    #: one chunked phase is not the whole multi-iteration run.
    stitch_reference: Callable[[Any], Any] | None = None


# --------------------------------------------------------------------- crypt

_CRYPT_KEY = crypt.generate_key()
_CRYPT_EK = crypt.encryption_subkeys(_CRYPT_KEY)
_CRYPT_DK = crypt.decryption_subkeys(_CRYPT_EK)


def _crypt_data(n_bytes: int) -> np.ndarray:
    rng = np.random.default_rng(n_bytes)
    return rng.integers(0, 256, size=n_bytes, dtype=np.uint8)


def _crypt_seq(n_bytes: int) -> np.ndarray:
    return crypt.encrypt(_crypt_data(n_bytes), _CRYPT_EK)


def _crypt_chunk(n_bytes: int, chunk_id: int, n_chunks: int) -> np.ndarray:
    data = _crypt_data(n_bytes)
    s = crypt.block_slices(n_bytes, n_chunks)[chunk_id]
    return crypt.encrypt(data[s], _CRYPT_EK)


def _crypt_validate(n_bytes: int) -> bool:
    data = _crypt_data(n_bytes)
    return bool(
        np.array_equal(crypt.decrypt(crypt.encrypt(data, _CRYPT_EK), _CRYPT_DK), data)
    )


# -------------------------------------------------------------------- series


def _series_seq(n: int) -> np.ndarray:
    return series.fourier_coefficients(n)


def _series_chunk(n: int, chunk_id: int, n_chunks: int) -> np.ndarray:
    base, extra = divmod(n, n_chunks)
    start = chunk_id * base + min(chunk_id, extra)
    size = base + (1 if chunk_id < extra else 0)
    return series.coefficient_range(start, start + size)


def _series_validate(n: int) -> bool:
    got = series.fourier_coefficients(min(n, 4))
    ref = series.reference_first_coefficients()
    for j in range(min(n, 4)):
        a, b = ref[j]
        if abs(got[j, 0] - a) > 5e-3 or abs(got[j, 1] - b) > 5e-3:
            return False
    return True


# ---------------------------------------------------------------- montecarlo


def _mc_cfg(n_paths: int) -> montecarlo.MonteCarloConfig:
    return montecarlo.MonteCarloConfig(n_paths=n_paths)


def _mc_seq(n_paths: int) -> montecarlo.PathResult:
    return montecarlo.run(_mc_cfg(n_paths))


def _mc_chunk(n_paths: int, chunk_id: int, n_chunks: int) -> montecarlo.PathResult:
    cfg = _mc_cfg(n_paths)
    first, count = montecarlo.path_chunks(cfg, n_chunks)[chunk_id]
    return montecarlo.simulate_paths(cfg, first, count)


def _mc_validate(n_paths: int) -> bool:
    res = _mc_seq(max(n_paths, 200))
    cfg = _mc_cfg(n_paths)
    # The re-estimated parameters must recover the model within MC noise.
    return abs(res.mean_sigma - cfg.sigma) < 0.05 and abs(res.mean_mu - cfg.mu) < 0.5


# ----------------------------------------------------------------------- sor


def _sor_seq(n: int) -> "np.ndarray":
    return sor.run(n)


def _sor_chunk(n: int, chunk_id: int, n_chunks: int) -> "np.ndarray":
    """One red half-sweep band on the fresh grid (bands of one color are
    independent; a full iteration interleaves phases with barriers — see
    tests/integration for that usage)."""
    grid = sor.initial_grid(n)
    interior = n - 2
    base, extra = divmod(interior, n_chunks)
    start = 1 + chunk_id * base + min(chunk_id, extra)
    rows = base + (1 if chunk_id < extra else 0)
    sor.sweep_color_rows(grid, sor.RED, start, start + rows)
    return grid[start : start + rows]


def _sor_stitch_reference(n: int) -> "np.ndarray":
    grid = sor.initial_grid(n)
    sor.sweep_color(grid, sor.RED)
    return grid[1 : n - 1]


def _sor_validate(n: int) -> bool:
    n = max(n, 8)
    grid = sor.run(n, iterations=30)
    # SOR smooths towards the discrete-harmonic interior: the residual of
    # the interior Laplace stencil must have shrunk vs the initial grid.
    def residual(g):
        interior = g[1:-1, 1:-1]
        nb = 0.25 * (g[:-2, 1:-1] + g[2:, 1:-1] + g[1:-1, :-2] + g[1:-1, 2:])
        return float(np.abs(interior - nb).mean())

    return residual(grid) < 0.25 * residual(sor.initial_grid(n))


# ----------------------------------------------------------------- raytracer

_RT_SCENE = raytracer.default_scene()


def _rt_seq(size: int) -> np.ndarray:
    return raytracer.render(_RT_SCENE, width=size, height=size)


def _rt_chunk(size: int, chunk_id: int, n_chunks: int) -> np.ndarray:
    base, extra = divmod(size, n_chunks)
    start = chunk_id * base + min(chunk_id, extra)
    rows = base + (1 if chunk_id < extra else 0)
    return raytracer.render_rows(_RT_SCENE, size, size, slice(start, start + rows))


def _rt_validate(size: int) -> bool:
    img = _rt_seq(min(size, 32))
    if img.shape != (min(size, 32), min(size, 32), 3):
        return False
    c = raytracer.checksum(img)
    return 0.0 < c < img.size  # channels clipped to [0,1] and scene non-empty


KERNELS: dict[str, KernelSpec] = {
    "crypt": KernelSpec(
        name="crypt",
        sizes={"A": 200_000 - 200_000 % 8, "B": 1_000_000, "C": 4_000_000},
        run_sequential=_crypt_seq,
        run_chunk=_crypt_chunk,
        validate=_crypt_validate,
        description="IDEA encryption of an N-byte array",
    ),
    "series": KernelSpec(
        name="series",
        sizes={"A": 40, "B": 150, "C": 500},
        run_sequential=_series_seq,
        run_chunk=_series_chunk,
        validate=_series_validate,
        description="First N Fourier coefficient pairs of (x+1)^x on [0,2]",
    ),
    "montecarlo": KernelSpec(
        name="montecarlo",
        sizes={"A": 200, "B": 1000, "C": 4000},
        run_sequential=_mc_seq,
        run_chunk=_mc_chunk,
        validate=_mc_validate,
        description="Monte-Carlo stock-path parameter recovery",
    ),
    "raytracer": KernelSpec(
        name="raytracer",
        sizes={"A": 32, "B": 96, "C": 192},
        run_sequential=_rt_seq,
        run_chunk=_rt_chunk,
        validate=_rt_validate,
        description="Ray-traced rendering of a 64-sphere scene",
    ),
    "sor": KernelSpec(
        name="sor",
        sizes={"A": 64, "B": 160, "C": 400},
        run_sequential=_sor_seq,
        run_chunk=_sor_chunk,
        validate=_sor_validate,
        description="Red-black successive over-relaxation (extension)",
        in_paper=False,
        stitch_reference=_sor_stitch_reference,
    ),
}


def kernel_names() -> list[str]:
    """All registered kernel names (paper set + extensions)."""
    return list(KERNELS)


def paper_kernel_names() -> list[str]:
    """The four kernels the paper's evaluation selects (§V-A)."""
    return [name for name, spec in KERNELS.items() if spec.in_paper]


def get_kernel(name: str) -> KernelSpec:
    """Look up a kernel by name; raises KeyError with the options listed."""
    try:
        return KERNELS[name]
    except KeyError:
        raise KeyError(
            f"unknown kernel {name!r}; available: {', '.join(KERNELS)}"
        ) from None


def time_kernel(name: str, size_class: str = "A", repeats: int = 3) -> float:
    """Median wall-clock seconds of one sequential kernel execution.

    Used to calibrate the simulator's cost models against this machine.
    """
    spec = get_kernel(name)
    size = spec.sizes[size_class]
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        spec.run_sequential(size)
        samples.append(time.perf_counter() - t0)
    samples.sort()
    return samples[len(samples) // 2]
