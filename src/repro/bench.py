"""repro.bench — the two helpers ``benchmarks/e2e`` imports.

The runtime is timed in one place, ``benchmarks/e2e`` (docs/BENCHMARKS.md);
the paper's figures come from :mod:`repro.sim`.  What is left here is what
every archived result needs beside its numbers: the environment that
produced them, and the one ``percentile`` definition they are summarised
with (the same object as :func:`repro.obs.metrics.percentile`).
"""

from __future__ import annotations

import os
import platform
import sys
import time
from typing import Any

from .obs.metrics import percentile

__all__ = ["environment_fingerprint", "percentile"]


def _gil_mode() -> str:
    """``on`` / ``off`` (free-threaded build) / the pre-3.13 default."""
    try:
        return "off" if not sys._is_gil_enabled() else "on"  # type: ignore[attr-defined]
    except AttributeError:
        return "on"


def environment_fingerprint() -> dict[str, Any]:
    """The host/interpreter facts stamped into every result document."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # macOS / Windows
        usable = os.cpu_count() or 1
    from . import __version__

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "usable_cores": usable,
        "gil": _gil_mode(),
        "perf_counter_resolution_s": time.get_clock_info("perf_counter").resolution,
        "repro_version": __version__,
    }
