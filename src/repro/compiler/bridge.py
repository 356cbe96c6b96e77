"""Runtime bridge: the single namespace generated code calls into.

Compiled source references exactly two reserved names:

* ``__repro_omp__`` — this module;
* ``__repro_omp_rt__`` — the :class:`~repro.core.runtime.PjRuntime` instance
  (or ``None`` for the process default), injected by
  :func:`repro.compiler.api.compile_function`.

Keeping the surface to one module makes the generated code auditable: every
semantic effect of a pragma is one visible ``__repro_omp__.<fn>(...)`` call,
mirroring Pyjama's generated ``PjRuntime.invokeTargetBlock`` calls.
"""

from __future__ import annotations

# Compiled ``#omp target`` and ``#omp wait(tag)`` pragmas call the library
# entry points themselves; the compiler stamps ``source=`` with the pragma's
# ``file:line`` so trace spans name the user's code location.
from ..core.api import run_on, wait_for
from ..openmp import (
    REDUCTIONS,
    barrier,
    critical,
    flush,
    for_loop,
    identity_for,
    master,
    omp_get_thread_num,
    ordered,
    parallel,
    sections,
    single,
    task,
    taskwait,
)

__all__ = [
    "run_on", "wait_for", "parallel", "for_loop", "sections", "single",
    "master", "critical", "barrier", "REDUCTIONS", "identity_for",
    "omp_get_thread_num", "task", "taskwait", "ordered", "flush",
]


def collapse_product(*iterables) -> list:
    """The flattened iteration space of a ``collapse(n)`` loop nest.

    Materialised eagerly (worksharing needs ``len``); OpenMP requires the
    collapsed bounds to be loop-invariant, so this is exactly the product
    the spec defines.
    """
    import itertools

    return list(itertools.product(*iterables))
