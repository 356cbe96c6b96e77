"""repro.dist — process-backed virtual targets (supervised, GIL-free).

The distribution layer extends the paper's virtual-target abstraction from
threads to worker OS processes.  A :class:`ProcessTarget` registers under a
name like any other target — ``virtual_target_create_process_worker("gpu", 4)``
— and the directive layer (``virtual(name)``, scheduling clauses, ``timeout=``,
backpressure policies) works on it unchanged; what changes is *where* region
bodies run: in a pool of supervised worker processes, outside the parent
interpreter's GIL, so CPU-bound kernels scale with cores.

Module map:

* :mod:`~repro.dist.remote_target` — :class:`RemoteLaneTarget`, the one
  parent-side core every remote backend shares: one shipper thread per
  lane, which opens, health-checks (idle heartbeats, idle-corpse
  reopen), ships to and retires it under a lease a caller may also take;
  crash-to-:class:`~repro.core.errors.WorkerCrashedError` conversion,
  restart budgets, cross-boundary cancellation, shutdown semantics — written
  against the :class:`RemoteLane` slot interface;
* :mod:`~repro.dist.process_target` — the process backend: a lane is a
  spawned child behind two pipes;
* :mod:`~repro.dist.worker` — the remote end (task loop + control loop),
  shared by child processes and cluster agents;
* :mod:`~repro.dist.wire` — serialization (cloudpickle when available, to
  parts that travel beside their message) and the message protocol;
* :mod:`~repro.dist.arena` — the shared-memory arenas large payloads cross
  a pipe lane in, and the channel wrapper both ends of the pipe run;
* :mod:`~repro.dist.remote_obs` — re-stamping worker-side events onto the
  parent's trace clock.

The wire protocol carries an explicit version
(:data:`~repro.dist.wire.PROTOCOL_VERSION`): cluster connections open with
a hello handshake and fail with a structured
:class:`~repro.core.errors.ProtocolVersionError` on mismatch.

See ``docs/DISTRIBUTION.md`` for the architecture discussion.
"""

from .. import _reexport

_EXPORTS = {
    "DEFAULT_START_METHOD": ".process_target",
    "HAVE_CLOUDPICKLE": ".wire",
    "PROTOCOL_VERSION": ".wire",
    "ProcessTarget": ".process_target",
    "ProtocolVersionError": "..core.errors",
    "RemoteLane": ".remote_target",
    "RemoteLaneTarget": ".remote_target",
    "WorkerConfig": ".worker",
    "estimate_offset_ns": ".remote_obs",
    "merge_worker_events": ".remote_obs",
    "worker_main": ".worker",
    "worker_track": ".remote_obs",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _reexport(globals(), _EXPORTS)
