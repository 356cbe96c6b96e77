"""Internal control variables (ICVs) for the fork-join substrate.

Scoped the way the OpenMP spec scopes them: a global set, copied into each
parallel region's team at fork time so mid-region mutation of the globals
does not disturb running teams.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field, replace

__all__ = ["ICVs", "global_icvs", "set_num_threads", "get_max_threads"]


def _default_threads() -> int:
    env = os.environ.get("OMP_NUM_THREADS")
    if env:
        try:
            return max(1, int(env.split(",")[0]))
        except ValueError:
            pass
    return os.cpu_count() or 1


@dataclass
class ICVs:
    """The subset of ICVs the substrate honours, each set by its
    ``omp_set_*`` routine (:mod:`repro.openmp.runtime_api`)."""

    nthreads_var: int = field(default_factory=_default_threads)
    nest_var: bool = True
    max_active_levels_var: int = 4
    run_sched_var: str = "static"
    run_sched_chunk: int | None = None

    def copy(self) -> "ICVs":
        return replace(self)


_global = ICVs()
_global_lock = threading.Lock()


def global_icvs() -> ICVs:
    """The process-global ICV set (copied into each team at fork)."""
    return _global


def set_num_threads(n: int) -> None:
    """omp_set_num_threads."""
    if n < 1:
        raise ValueError("number of threads must be >= 1")
    with _global_lock:
        _global.nthreads_var = n


def get_max_threads() -> int:
    """omp_get_max_threads."""
    return _global.nthreads_var
