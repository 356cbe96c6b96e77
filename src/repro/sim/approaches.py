"""Event-handling approach models for the GUI benchmark (paper §V-A).

Each approach is a different structure for the same logical handler —
pre-update on the EDT, a kernel computation, post-update on the EDT — and a
response completes when the post-update finishes (the paper measures "the
time flow from the event firing to the finish of its event handling").

========================  ====================================================
``sequential``            everything inline on the EDT (Figure 1(i))
``swingworker``           offload to the shared 10-thread SwingWorker pool,
                          ``done()`` posted back to the EDT (Figure 3)
``executor``              offload to a fixed ExecutorService pool, completion
                          posted via invokeLater (Figure 1(ii))
``thread_per_request``    a fresh thread per event (§II-A baseline)
``pyjama_async``          ``target virtual(worker) await`` + continuation on
                          the EDT (the paper's model, Figure 6)
``sync_parallel``         EDT runs the kernel as a fork-join team and stays
                          blocked ("the EDT … is actually unresponsive for a
                          longer time", §V-A)
``async_parallel``        offload to a worker that runs the kernel as a
                          fork-join team (asynchronous parallel)
========================  ====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator

from .costmodel import GUI_KERNELS, KernelCostModel, kernel_task, parallel_kernel_task
from .des import SimEvent, Simulator
from .machine import Machine, MachineConfig
from .metrics import ResponseStats
from .threadsim import AwaitBlock, SimEventLoop, SimThreadPool, ThreadCosts, spawn_thread
from .trace import TraceRecorder
from .workload import fire_open_loop

__all__ = ["GuiBenchConfig", "GuiBenchResult", "APPROACHES", "run_gui_benchmark"]

#: The manual-offloading approaches the paper's first evaluation compares,
#: plus the baselines its background section motivates.
APPROACHES = (
    "sequential",
    "swingworker",
    "executor",
    "thread_per_request",
    "pyjama_async",
    "sync_parallel",
    "async_parallel",
)

#: Directive interpretation overhead per pragma (the paper's model adds a
#: thin runtime layer over the raw executor; measured small).
DIRECTIVE_OVERHEAD = 2e-6


@dataclass
class GuiBenchConfig:
    """One benchmark cell: an approach under a request load."""

    approach: str = "pyjama_async"
    kernel: KernelCostModel = field(default_factory=lambda: GUI_KERNELS["crypt"])
    rate: float = 30.0                 # requests/second
    n_events: int = 200
    cores: int = 4                     # the paper's i5-3570 desktop
    switch_overhead: float = 0.12
    worker_pool: int = 4               # executor / pyjama worker target size
    swingworker_pool: int = 10         # Java's hard-coded SwingWorker bound
    parallel_threads: int = 3          # "in default using 3 worker threads"
    gui_update: float = 0.5e-3         # pre/post widget updates on the EDT
    costs: ThreadCosts = field(default_factory=ThreadCosts)
    #: 'continuation' = idealised await (what the figures assume);
    #: 'pumping' = Algorithm 1's nested message loops (the real runtime).
    await_style: str = "continuation"

    def __post_init__(self) -> None:
        if self.approach not in APPROACHES:
            raise ValueError(
                f"unknown approach {self.approach!r}; choose from {APPROACHES}"
            )


@dataclass
class GuiBenchResult:
    """Both §V-A signals for one cell.

    * ``response`` — fire → handling finished (the paper's headline metric);
    * ``dispatch`` — fire → handler starts on the EDT.  This is the
      *responsiveness* signal: a blocked EDT (sequential, sync-parallel)
      shows up here even when raw response times look fine.
    * ``edt_busy_fraction`` — share of the run the EDT spent executing
      handler code (the "idleness of the EDT" the paper says must be
      maximised).
    """

    response: ResponseStats
    dispatch: ResponseStats
    edt_busy_fraction: float


@dataclass
class _World:
    sim: Simulator
    machine: Machine
    edt: SimEventLoop
    pools: dict[str, SimThreadPool]
    stats: ResponseStats
    dispatch: ResponseStats
    cfg: GuiBenchConfig


def _build_world(cfg: GuiBenchConfig, trace: TraceRecorder | None = None) -> _World:
    sim = Simulator()
    machine = Machine(
        sim, MachineConfig(cores=cfg.cores, switch_overhead=cfg.switch_overhead)
    )
    edt = SimEventLoop(
        sim, machine, costs=cfg.costs, trace=trace, await_style=cfg.await_style
    )
    pools: dict[str, SimThreadPool] = {}
    if cfg.approach in ("executor", "pyjama_async", "async_parallel"):
        pools["worker"] = SimThreadPool(
            sim, machine, cfg.worker_pool, name="worker", costs=cfg.costs, trace=trace
        )
    if cfg.approach == "swingworker":
        pools["swing"] = SimThreadPool(
            sim, machine, cfg.swingworker_pool, name="swing", costs=cfg.costs,
            trace=trace,
        )
    return _World(sim, machine, edt, pools, ResponseStats(), ResponseStats(), cfg)


# ---------------------------------------------------------------- handlers
#
# Every handler factory returns a generator the EDT dispatches.  `finish`
# must be called exactly once per event, at the moment the paper's response
# clock stops.


def _gui_update(w: _World) -> SimEvent:
    return w.machine.execute(w.cfg.gui_update, name="gui-update")


def _sequential(w: _World, finish) -> Generator:
    yield _gui_update(w)
    yield w.machine.execute(w.cfg.kernel.serial_time, name="kernel")
    yield _gui_update(w)
    finish()


def _swingworker(w: _World, finish) -> Generator:
    yield _gui_update(w)
    yield w.machine.execute(w.cfg.costs.queue_handoff, name="submit")
    background_done = w.pools["swing"].submit(kernel_task(w.machine, w.cfg.kernel))

    def done_handler() -> Generator:
        yield _gui_update(w)
        finish()

    # SwingWorker posts done() to the EDT when the background work ends.
    background_done.on_fire(lambda _ev: w.edt.post(done_handler))


def _executor(w: _World, finish) -> Generator:
    yield _gui_update(w)
    yield w.machine.execute(w.cfg.costs.queue_handoff, name="submit")
    background_done = w.pools["worker"].submit(kernel_task(w.machine, w.cfg.kernel))

    def completion() -> Generator:  # SwingUtilities.invokeLater(...)
        yield _gui_update(w)
        finish()

    background_done.on_fire(lambda _ev: w.edt.post(completion))


def _thread_per_request(w: _World, finish) -> Generator:
    yield _gui_update(w)
    done = spawn_thread(
        w.sim, w.machine, kernel_task(w.machine, w.cfg.kernel), costs=w.cfg.costs
    )

    def completion() -> Generator:
        yield _gui_update(w)
        finish()

    done.on_fire(lambda _ev: w.edt.post(completion))


def _pyjama_async(w: _World, finish) -> Generator:
    # `target virtual(worker) await`: offload, logical barrier, sequential
    # continuation — no callback plumbing in user code.
    yield _gui_update(w)
    yield w.machine.execute(
        w.cfg.costs.queue_handoff + DIRECTIVE_OVERHEAD, name="invoke-target"
    )
    block = w.pools["worker"].submit(kernel_task(w.machine, w.cfg.kernel))
    yield AwaitBlock(block)
    yield _gui_update(w)
    finish()


def _sync_parallel(w: _World, finish) -> Generator:
    # The EDT is the team master and stays in the region until the join.
    yield _gui_update(w)
    task = parallel_kernel_task(
        w.sim, w.machine, w.cfg.kernel, w.cfg.parallel_threads + 1
    )
    yield w.sim.process(task(), name="omp-parallel")
    yield _gui_update(w)
    finish()


def _async_parallel(w: _World, finish) -> Generator:
    yield _gui_update(w)
    yield w.machine.execute(
        w.cfg.costs.queue_handoff + DIRECTIVE_OVERHEAD, name="invoke-target"
    )
    task = parallel_kernel_task(w.sim, w.machine, w.cfg.kernel, w.cfg.parallel_threads)
    block = w.pools["worker"].submit(task)
    yield AwaitBlock(block)
    yield _gui_update(w)
    finish()


_HANDLERS = {
    "sequential": _sequential,
    "swingworker": _swingworker,
    "executor": _executor,
    "thread_per_request": _thread_per_request,
    "pyjama_async": _pyjama_async,
    "sync_parallel": _sync_parallel,
    "async_parallel": _async_parallel,
}


# ------------------------------------------------------------------ driver


def run_gui_benchmark(
    cfg: GuiBenchConfig, trace: TraceRecorder | None = None
) -> GuiBenchResult:
    """Run one (approach, kernel, rate) cell.

    Deterministic: same config → identical statistics.  *trace*, when
    given, records the EDT's handler segments and the pools' tasks (what
    ``python -m repro timeline`` renders).
    """
    w = _build_world(cfg, trace)
    handler = _HANDLERS[cfg.approach]

    def fire(i: int) -> None:
        fired_at = w.sim.now

        def finish() -> None:
            w.stats.record(fired_at, w.sim.now)

        def dispatched() -> Generator:
            w.dispatch.record(fired_at, w.sim.now)
            result = yield from handler(w, finish)
            return result

        w.edt.post(dispatched)

    fire_open_loop(w.sim, cfg.rate, cfg.n_events, fire)
    w.sim.run()
    if w.stats.count != cfg.n_events:
        raise RuntimeError(
            f"lost events: {w.stats.count}/{cfg.n_events} completed "
            f"({cfg.approach} @ {cfg.rate}/s)"
        )
    duration = w.stats.last_finished or 1.0
    return GuiBenchResult(
        response=w.stats,
        dispatch=w.dispatch,
        edt_busy_fraction=min(1.0, w.edt.busy_time / duration),
    )
