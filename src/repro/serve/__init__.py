"""A live event-driven HTTP server on virtual targets (paper Fig. 9).

Figure 9 of the paper sketches its flagship use case: an HTTP server whose
main thread is the event dispatch thread and whose request handlers are
``#omp target virtual(...)`` regions.  ``repro.sim`` models that server
analytically; this package stands it up on real sockets:

* :mod:`server` — the asyncio HTTP/1.1 server (keep-alive, bounded
  admission under all three rejection policies, per-request deadlines,
  graceful drain) whose CPU work is dispatched to thread- or
  process-backed virtual targets, and its ``GET /stats`` counters (a
  :class:`repro.obs.Tally`);
* :mod:`loadgen` — the closed-loop keep-alive client the soak phase and
  the tests drive the server with (it times nothing: the server is
  measured from another process by ``benchmarks/e2e``);
* :mod:`soak` — the ``repro check`` phase that kills a worker process
  under live load and verifies errors-not-hangs.

Entry point: ``python -m repro serve`` (see ``docs/SERVING.md``).
"""

from .loadgen import LoadResult, make_payload, run_closed_loop
from .server import HttpServer, ServeConfig, encrypt_payload

__all__ = [
    "HttpServer",
    "ServeConfig",
    "encrypt_payload",
    "LoadResult",
    "run_closed_loop",
    "make_payload",
]
