"""Directive-runtime overhead vs hand-written executor code (§III/IV claim).

The paper argues the directive approach costs no more than the manual
ExecutorService pattern it replaces.  Here we measure, on real threads:

* dispatch+join through ``invoke_target_block`` (Algorithm 1), vs
* dispatch+join through the plain ExecutorService baseline, vs
* the compiled-pragma path (``@omp`` output calling the same runtime).

The baseline posts to the same kind of pool (an ``ExecutorService`` is a view
over a ``WorkerTarget``), so the manual-vs-directive gap is exactly what
Algorithm 1 adds on top of the queue hand-off: a registry lookup and a context
check.  Each set-up below returns ``(op, cleanup)``; pytest-benchmark times
``op``.
"""

from __future__ import annotations

from repro.compiler import exec_omp
from repro.core import PjRuntime
from repro.eventloop import ExecutorService


def _worker_runtime() -> PjRuntime:
    rt = PjRuntime()
    rt.create_worker("worker", 2)
    return rt


def _pyjama_dispatch():
    """Algorithm 1 dispatch+join round trip on a 2-thread worker target."""
    rt = _worker_runtime()
    op = lambda: rt.invoke_target_block("worker", lambda: 42).result()
    return op, lambda: rt.shutdown(wait=False)


def _manual_executor():
    """The hand-written ExecutorService submit+get baseline."""
    pool = ExecutorService(2, name="manual")
    op = lambda: pool.submit(lambda: 42).get()
    return op, pool.shutdown_now


def _compiled_pragma():
    """The ``#omp target virtual`` pragma compiled down to the same runtime."""
    rt = _worker_runtime()
    ns = exec_omp(
        "def f():\n"
        "    #omp target virtual(worker)\n"
        "    x = 42\n"
        "    return x\n",
        runtime=rt,
    )
    return ns["f"], lambda: rt.shutdown(wait=False)


def _inline_short_circuit():
    """Thread-context awareness: a member thread pays no queue round trip."""
    rt = _worker_runtime()

    def member_dispatch():
        return rt.invoke_target_block(
            "worker",
            lambda: rt.invoke_target_block("worker", lambda: 42).result(),
        ).result()

    return member_dispatch, lambda: rt.shutdown(wait=False)


def test_overhead_pyjama_dispatch(time_setup):
    time_setup(_pyjama_dispatch, expect=42)


def test_overhead_manual_executor(time_setup):
    time_setup(_manual_executor, expect=42)


def test_overhead_compiled_pragma(time_setup):
    time_setup(_compiled_pragma, expect=42)


def test_overhead_inline_short_circuit(time_setup):
    time_setup(_inline_short_circuit, expect=42)
