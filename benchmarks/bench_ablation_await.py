"""Ablation — `await` (logical barrier) vs a plain blocking wait.

DESIGN.md §6: what does the paper's key mechanism actually buy?  We compare
the extended model (EDT processes other events while a block runs) against a
"default-clause" variant where the EDT blocks at the directive, holding
everything else up.  The metric is the *dispatch latency* of other events —
the responsiveness the paper optimises for.
"""

from __future__ import annotations

from repro.sim import GUI_KERNELS, GuiBenchConfig, run_gui_benchmark
from repro.sim.approaches import _HANDLERS, _World  # ablation taps internals
from repro.sim.costmodel import kernel_task
from repro.sim.threadsim import AwaitBlock


def _blocking_wait_handler(w: _World, finish):
    """pyjama_async with the await clause removed: the EDT stalls at the
    directive ('default' scheduling of Table I)."""
    yield w.machine.execute(w.cfg.gui_update, name="gui-update")
    block = w.pools["worker"].submit(kernel_task(w.machine, w.cfg.kernel))
    yield block  # plain yield = EDT blocked (no logical barrier)
    yield w.machine.execute(w.cfg.gui_update, name="gui-update")
    finish()


def run_variant(use_await: bool, rate: float):
    key = "pyjama_async" if use_await else "__blocking__"
    if not use_await:
        _HANDLERS["__blocking__"] = _blocking_wait_handler
    try:
        cfg = GuiBenchConfig(
            approach="pyjama_async",  # config validation; handler overridden
            kernel=GUI_KERNELS["crypt"],
            rate=rate,
            n_events=150,
        )
        # Swap the handler under the same world construction.
        original = _HANDLERS["pyjama_async"]
        if not use_await:
            _HANDLERS["pyjama_async"] = _blocking_wait_handler
        try:
            return run_gui_benchmark(cfg)
        finally:
            _HANDLERS["pyjama_async"] = original
    finally:
        _HANDLERS.pop("__blocking__", None)


def test_ablation_await_vs_blocking(benchmark, report):
    rates = [10, 20, 30, 50, 80]
    data = benchmark.pedantic(
        lambda: {
            "await": [run_variant(True, r) for r in rates],
            "blocking": [run_variant(False, r) for r in rates],
        },
        rounds=1,
        iterations=1,
    )

    header = f"{'req/s':>6} | {'await disp(ms)':>14} | {'block disp(ms)':>14} | {'await resp':>10} | {'block resp':>10}"
    lines = ["Ablation: await logical barrier vs blocking wait (crypt kernel)",
             header, "-" * len(header)]
    for i, r in enumerate(rates):
        a, b = data["await"][i], data["blocking"][i]
        lines.append(
            f"{r:>6} | {a.dispatch.mean * 1000:>14.2f} | {b.dispatch.mean * 1000:>14.2f} | "
            f"{a.response.mean * 1000:>10.1f} | {b.response.mean * 1000:>10.1f}"
        )
    report("ablation_await", lines)

    # Past the EDT saturation point the blocking variant behaves like the
    # sequential approach (the EDT is occupied for the kernel's duration),
    # while await keeps dispatch latency near zero.
    hi = len(rates) - 1
    assert data["await"][hi].dispatch.mean < 0.01
    assert data["blocking"][hi].dispatch.mean > 10 * data["await"][hi].dispatch.mean
    # At low load, response times are equivalent: the barrier costs nothing.
    assert data["await"][0].response.mean == __import__("pytest").approx(
        data["blocking"][0].response.mean, rel=0.05
    )


def test_ablation_pumping_vs_continuation_await(benchmark, report):
    """Algorithm 1's *pumping* barrier vs the idealised continuation barrier
    (the nesting finding; see EXPERIMENTS.md).  Dispatch latency — the
    responsiveness the paper optimises — is near-zero for both; measured
    response times inflate under pumping because overlapping handlers'
    continuations unwind LIFO."""
    from repro.sim import GUI_KERNELS, GuiBenchConfig, run_gui_benchmark

    rates = [10, 20, 40, 60, 80]

    def sweep():
        out = {}
        for style in ("continuation", "pumping"):
            out[style] = [
                run_gui_benchmark(
                    GuiBenchConfig(
                        approach="pyjama_async",
                        kernel=GUI_KERNELS["crypt"],
                        rate=float(r),
                        n_events=150,
                        await_style=style,
                    )
                )
                for r in rates
            ]
        return out

    data = benchmark.pedantic(sweep, rounds=1, iterations=1)
    header = (
        f"{'req/s':>6} | {'cont resp(ms)':>13} | {'pump resp(ms)':>13} | "
        f"{'cont disp':>9} | {'pump disp':>9}"
    )
    lines = ["Ablation: continuation vs pumping await (Algorithm 1 nesting)",
             header, "-" * len(header)]
    for i, r in enumerate(rates):
        c, p = data["continuation"][i], data["pumping"][i]
        lines.append(
            f"{r:>6} | {c.response.mean * 1000:>13.1f} | {p.response.mean * 1000:>13.1f} | "
            f"{c.dispatch.mean * 1000:>9.2f} | {p.dispatch.mean * 1000:>9.2f}"
        )
    report("ablation_await_styles", lines)

    # Responsiveness survives pumping (the paper's claim holds either way)...
    assert all(r.dispatch.mean < 0.01 for r in data["pumping"])
    # ...but continuation latency inflates once awaits overlap.
    assert (
        data["pumping"][-1].response.mean
        > 1.5 * data["continuation"][-1].response.mean
    )
    # No overlap at low rates: the styles agree.
    assert data["pumping"][0].response.mean == __import__("pytest").approx(
        data["continuation"][0].response.mean, rel=0.02
    )
