"""Java Grande kernel ports used by the paper's evaluation (§V-A).

Kernels: Crypt (IDEA encryption), Series (Fourier coefficients), MonteCarlo
(stock-path pricing), RayTracer (sphere scene).  Each exposes a sequential
form and an independent-chunk decomposition along the axis the original
benchmark parallelises with ``omp for``.
"""

from . import crypt, montecarlo, raytracer, series, sor
from .harness import (
    KERNELS,
    KernelSpec,
    get_kernel,
    kernel_names,
    paper_kernel_names,
    time_kernel,
)

__all__ = [
    "crypt",
    "montecarlo",
    "raytracer",
    "series",
    "sor",
    "KERNELS",
    "KernelSpec",
    "get_kernel",
    "kernel_names",
    "paper_kernel_names",
    "time_kernel",
]
