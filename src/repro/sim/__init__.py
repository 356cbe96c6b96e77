"""Discrete-event simulation substrate regenerating the paper's evaluation.

Layers: DES core (:mod:`des`), queueing primitives (:mod:`resources`),
machine model with oversubscription (:mod:`machine`), simulated threads and
the event-dispatch loop (:mod:`threadsim`), kernel cost models
(:mod:`costmodel`), workload generators (:mod:`workload`), metrics
(:mod:`metrics`), the two experiment drivers — GUI event handling
(:mod:`approaches`, Figures 7-8) and the HTTP service (:mod:`httpserver`,
Figure 9) — and one sweep per paper figure (:mod:`figures`), which both
``python -m repro figN`` and ``benchmarks/bench_figN_*.py`` use.
"""

from .approaches import APPROACHES, GuiBenchConfig, GuiBenchResult, run_gui_benchmark
from .costmodel import (
    FORK_JOIN_OVERHEAD,
    GUI_KERNELS,
    KernelCostModel,
    calibrate_from_host,
    kernel_task,
    parallel_kernel_task,
)
from .des import AllOf, AnyOf, Process, SimEvent, SimulationError, Simulator
from .figures import figure1, figure7, figure8, figure9
from .httpserver import (
    DEFAULT_HTTP_KERNEL,
    SERVERS,
    HttpBenchConfig,
    HttpBenchResult,
    run_http_benchmark,
)
from .machine import Machine, MachineConfig
from .metrics import ResponseStats, Series, ThroughputMeter
from .resources import Resource, Store
from .threadsim import AwaitBlock, SimEventLoop, SimThreadPool, ThreadCosts, spawn_thread
from .trace import Span, TraceRecorder, render_ascii
from .workload import fire_open_loop, run_closed_loop_users

__all__ = [
    "APPROACHES", "GuiBenchConfig", "GuiBenchResult", "run_gui_benchmark",
    "FORK_JOIN_OVERHEAD", "GUI_KERNELS", "KernelCostModel",
    "calibrate_from_host", "kernel_task", "parallel_kernel_task",
    "figure1", "figure7", "figure8", "figure9",
    "AllOf", "AnyOf", "Process", "SimEvent", "SimulationError", "Simulator",
    "DEFAULT_HTTP_KERNEL", "SERVERS", "HttpBenchConfig", "HttpBenchResult",
    "run_http_benchmark",
    "Machine", "MachineConfig",
    "ResponseStats", "Series", "ThroughputMeter",
    "Resource", "Store",
    "AwaitBlock", "SimEventLoop", "SimThreadPool", "ThreadCosts", "spawn_thread",
    "Span", "TraceRecorder", "render_ascii",
    "fire_open_loop", "run_closed_loop_users",
]
