"""One function per paper figure: the sweep and its table, built once.

``python -m repro figN`` prints the table; ``benchmarks/bench_figN_*.py``
asserts the paper's shape on the data and archives the same lines under
``benchmarks/results/``.  With default arguments the two are the same text
(Figures 7 and 8 default to the ``crypt`` kernel).  Each function returns
``(data, lines)``.
"""

from __future__ import annotations

from typing import Any, Sequence

from .approaches import APPROACHES, GuiBenchConfig, GuiBenchResult, run_gui_benchmark
from .costmodel import GUI_KERNELS, KernelCostModel, calibrate_from_host
from .httpserver import DEFAULT_HTTP_KERNEL, HttpBenchConfig, run_http_benchmark

__all__ = ["figure1", "figure7", "figure8", "figure9"]

#: The §V-A request-rate sweep (requests/second), Figures 7 and 8.
RATES = (10, 20, 30, 40, 50, 60, 70, 80, 90, 100)
#: Figure 7's approaches, in column order, and their column labels.
FIG7_APPROACHES = ("sequential", "swingworker", "executor", "pyjama_async", "sync_parallel")
_LABELS = {"sequential": "seq", "swingworker": "swing", "executor": "exec",
           "pyjama_async": "pyjama", "sync_parallel": "syncpar"}
#: The §V-B worker-thread sweep, Figure 9.
WORKERS = (1, 2, 4, 8, 16, 32, 64)


def _gui_kernel(name: str, calibrate: bool) -> tuple[KernelCostModel, list[str]]:
    """The GUI kernel model, optionally rescaled from this host's kernels."""
    if not calibrate:
        return GUI_KERNELS[name], []
    model = calibrate_from_host()[name]
    return model, [f"(calibrated from host: {name} = "
                   f"{model.serial_time * 1000:.1f} ms serial)"]


def figure1(
    handler_ms: float = 200.0, spacing_ms: float = 50.0, events: int = 3
) -> tuple[dict[str, GuiBenchResult], list[str]]:
    """Figure 1: *events* handlers of *handler_ms* fired *spacing_ms* apart,
    on a single-threaded EDT and on a thread pool.  ``data`` maps
    ``sequential`` / ``executor`` to their :class:`GuiBenchResult`."""
    handler = KernelCostModel("fig1-handler", serial_time=handler_ms / 1000.0,
                              parallel_fraction=0.9)
    data = {
        approach: run_gui_benchmark(GuiBenchConfig(
            approach=approach, kernel=handler, rate=1000.0 / spacing_ms,
            n_events=events))
        for approach in ("sequential", "executor")
    }
    count = {1: "one", 2: "two", 3: "three"}.get(events, events)
    lines = [f"Figure 1: {count} {handler_ms:g}ms-handler events fired "
             f"{spacing_ms:g}ms apart", ""]
    for approach, title in (
        ("sequential", "(i) single-threaded event processing  — response times per event:"),
        ("executor", "(ii) multi-threaded (thread-pool) processing:"),
    ):
        lines.append(title)
        for i, rt in enumerate(data[approach].response.samples):
            lines.append(f"    request{i + 1}: fired at {i * spacing_ms:.0f}ms, "
                         f"responded after {rt * 1000:6.1f}ms")
    return data, lines


def figure7(
    kernel: str = "crypt",
    rates: Sequence[int] = RATES,
    events: int = 200,
    approaches: Sequence[str] = FIG7_APPROACHES,
    metric: str = "response",
    calibrate: bool = False,
) -> tuple[dict[str, list[float]], list[str]]:
    """Figure 7: mean *metric* time (ms) of each approach over the rate sweep.

    *metric* is ``response`` (fire → handled, the paper's) or ``dispatch``
    (fire → handler starts: the EDT's responsiveness).  ``data`` maps each
    approach to one value per rate.  An unknown approach raises ValueError
    before anything runs.
    """
    unknown = [a for a in approaches if a not in APPROACHES]
    if unknown:
        raise ValueError(f"unknown approach {unknown[0]!r}; "
                         f"choose from {', '.join(APPROACHES)}")
    model, lines = _gui_kernel(kernel, calibrate)
    data = {
        approach: [
            getattr(run_gui_benchmark(GuiBenchConfig(
                approach=approach, kernel=model, rate=float(rate), n_events=events,
            )), metric).mean * 1000.0
            for rate in rates
        ]
        for approach in approaches
    }
    header = f"{'req/s':>6} | " + " | ".join(
        f"{_LABELS.get(a, a[:10]):>10}" for a in approaches)
    lines += [
        f"Figure 7 [{kernel}]: mean {metric} time (ms), "
        f"kernel={model.serial_time * 1000:.0f}ms, {events} events/round",
        header,
        "-" * len(header),
    ]
    for i, rate in enumerate(rates):
        lines.append(f"{rate:>6} | " + " | ".join(f"{data[a][i]:>10.1f}" for a in approaches))
    return data, lines


def figure8(
    kernel: str = "crypt",
    rates: Sequence[int] = RATES,
    events: int = 200,
    team: int = 3,
    calibrate: bool = False,
) -> tuple[dict[str, list[float]], list[str]]:
    """Figure 8: mean response (ms) of offloading alone vs offloading plus a
    per-event *team*-thread ``omp parallel``, sequential for reference.
    ``data`` maps ``sequential`` / ``pyjama_async`` / ``async_parallel`` to
    one value per rate."""
    model, lines = _gui_kernel(kernel, calibrate)
    approaches = ("sequential", "pyjama_async", "async_parallel")
    data = {
        approach: [
            run_gui_benchmark(GuiBenchConfig(
                approach=approach, kernel=model, rate=float(rate), n_events=events,
                parallel_threads=team,
            )).response.mean * 1000.0
            for rate in rates
        ]
        for approach in approaches
    }
    header = (f"{'req/s':>6} | {'sequential':>10} | {'async':>10} | "
              f"{'async-par':>10} | {'gain':>6}")
    lines += [
        f"Figure 8 [{kernel}]: async vs async-parallel "
        f"({team} team threads), mean response (ms)",
        header,
        "-" * len(header),
    ]
    for i, rate in enumerate(rates):
        seq, plain, par = (data[a][i] for a in approaches)
        lines.append(f"{rate:>6} | {seq:>10.1f} | {plain:>10.1f} | {par:>10.1f} | "
                     f"{plain / par:>5.2f}x")
    return data, lines


def figure9(
    workers: Sequence[int] = WORKERS, users: int = 100, team: int = 8
) -> tuple[dict[str, dict[str, Any]], list[str]]:
    """Figure 9: simulated HTTP throughput (responses/s) against worker
    threads for Jetty and Pyjama, plain and with a per-request *team*.
    ``data`` maps each variant label to its ``throughput`` and
    ``latency_p95`` (s) series, one value per worker count."""
    variants = (("jetty", None, "jetty"), ("pyjama", None, "pyjama"),
                ("jetty", team, "jetty+par"), ("pyjama", team, "pyjama+par"))
    data: dict[str, dict[str, Any]] = {}
    for server, par, label in variants:
        results = [
            run_http_benchmark(HttpBenchConfig(
                server=server, worker_threads=w, parallel_threads=par, n_users=users))
            for w in workers
        ]
        data[label] = {
            "throughput": [r.throughput for r in results],
            "latency_p95": [r.response.percentile(95) for r in results],
        }

    def rows(series: str, fmt: str) -> list[str]:
        return [f"{w:>8} | " + " | ".join(f"{data[label][series][i]:>10{fmt}}"
                                         for label in data)
                for i, w in enumerate(workers)]

    header = f"{'workers':>8} | " + " | ".join(f"{label:>10}" for label in data)
    return data, [
        "Figure 9 [simulated (repro.sim)]: throughput (responses/sec), "
        f"{users} virtual users, {HttpBenchConfig.cores} cores, "
        f"encryption={DEFAULT_HTTP_KERNEL.serial_time * 1000:.0f}ms, "
        f"parallel team={team}",
        header,
        "-" * len(header),
        *rows("throughput", ".1f"),
        "",
        "NOTE: simulated (repro.sim) — modeled 16-core machine in virtual "
        "time, not live sockets.  For measured numbers on this host see "
        "`benchmarks/e2e/run.py --workload serve_small`; the two are not "
        "directly comparable.",
        "",
        "p95 response latency (s):",
        *rows("latency_p95", ".2f"),
    ]
