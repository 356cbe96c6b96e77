"""repro — reproduction of *Towards an Event-Driven Programming Model for
OpenMP* (Fan, Sinnen, Giacaman; ICPP 2016).

Subpackages
-----------
core
    The paper's contribution: virtual targets, scheduling clauses, Algorithm 1
    runtime, on real Python threads.
compiler
    Pyjama-style source-to-source compiler: rewrites ``#omp`` comment pragmas
    in Python functions into runtime calls.
openmp
    Classic fork-join OpenMP substrate (parallel regions, worksharing,
    reductions, synchronization) so the two models coexist as in the paper.
eventloop
    Swing-like event-driven substrate: event queue, EDT, SwingWorker and
    ExecutorService baselines, EDT-confined mock GUI widgets.
kernels
    Java Grande kernel ports: Crypt, Series, MonteCarlo, RayTracer.
sim
    Discrete-event simulator regenerating the paper's performance evaluation
    (Figures 7-9) on a virtual-time machine model, with execution tracing.
adapters
    Bindings to other event frameworks (asyncio), per the paper's future
    work, including async-I/O offloading.
dist
    Process-backed virtual targets: supervised worker processes behind the
    unchanged ``target`` surface (wire protocol, heartbeats, restarts).
cluster
    Socket-connected multi-host virtual targets: the dist machinery over
    TCP transports to remote worker agents (``repro cluster-worker``).
obs
    Structured event tracing and metrics: per-thread ring-buffer recorders,
    the REGION_SUBMIT→ENQUEUE→DEQUEUE→EXEC taxonomy, Chrome-trace/Perfetto
    export, latency histograms (see docs/OBSERVABILITY.md).
cli
    ``python -m repro`` — regenerate figures, render occupancy timelines,
    compile files, record traces (``trace`` subcommand).
"""

__version__ = "1.0.0"


def _reexport(namespace: dict, exports: dict[str, str]):
    """The PEP 562 ``__getattr__`` and ``__dir__`` of a package that
    re-exports *exports* (name -> the submodule that defines it, relative
    to the package; a submodule exports itself under its own name).

    A name's submodule is imported on first access and the value is kept
    in the package namespace, so ``pkg.X``, ``from pkg import X`` and
    ``dir(pkg)`` read as they would after eager imports, while importing
    the package imports none of its submodules: a worker process that
    imports :mod:`repro.dist.worker` loads only what that module uses.
    """
    import importlib

    package = namespace["__name__"]

    def __getattr__(name: str):
        source = exports.get(name)
        if source is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(source, package)
        value = module if source == "." + name else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | exports.keys())

    return __getattr__, __dir__


__all__ = ["core", "obs", "__version__"]
__getattr__, __dir__ = _reexport(globals(), {"core": ".core", "obs": ".obs"})
