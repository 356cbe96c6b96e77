"""`ClusterTarget`: a virtual target backed by socket-connected remote workers.

The multi-host backend of
:class:`~repro.dist.remote_target.RemoteLaneTarget` (read that module for
the architecture: shipper threads, health checks, cancellation, trace merge)
— the lanes are slots on **cluster worker agents**
(:mod:`repro.cluster.agent`), reached over TCP (or any
:class:`~repro.cluster.transport.Transport`) instead of pipes to child
processes.  That completes the arXiv:2207.05677 / 2205.10656 "remote
device" move: the same ``target`` program runs on threads, processes, or a
set of hosts, chosen per target name at configuration time.

Slots interleave across endpoints (``shards`` lanes per endpoint, slot *i*
on endpoint ``i % len(endpoints)``), and all shippers pull from the one
shared queue, so routing is least-loaded by construction: a fast or idle
host's slots simply dequeue more regions, and round-robin falls out when
all hosts keep pace.  What differs from a process target:

* a lane opens with a versioned hello on each of its two connections
  (a checkout mismatch dies there with
  :class:`~repro.core.errors.ProtocolVersionError`);
* ``terminate()`` tears the *connections* — the lane is reclaimed and
  reconnected, but unlike a process target we cannot kill the remote body
  itself (it lives in an agent we may not own); it runs to completion
  remotely unless it polls its cancel token, which the failure-semantics
  table in ``docs/DISTRIBUTION.md`` spells out;
* there are no exit codes: a lost lane reports the reason text on
  ``WORKER_DISCONNECT`` instants (``WORKER_CONNECT`` when it comes up);
* when one endpoint dies, its slots burn their reconnect budgets and
  disable while the surviving endpoints' slots keep draining the shared
  queue: shard failover without any routing logic.

Cross-host ``wait_tag`` needs nothing of its own: a tagged region ships
as a plain :class:`~repro.dist.wire.TaskMsg`, the result flows back through
:meth:`~repro.core.region.TargetRegion.fulfill`, and the
:class:`~repro.core.tags.TagRegistry` done-callback fires parent-side
exactly as for local targets.
"""

from __future__ import annotations

from typing import Sequence

from ..dist.remote_target import RemoteLane, RemoteLaneTarget
from ..obs import EventKind
from . import transport as _transport

__all__ = ["ClusterTarget"]


class _ClusterSlot(RemoteLane):
    """A lane whose worker is an agent slot behind two transports."""

    __slots__ = ("host", "port")

    noun = "lane"
    #: Per connection attempt: TCP connect, hello, clock probe 1.
    open_timeout = 10.0

    def __init__(self, index: int, target_name: str, host: str, port: int) -> None:
        super().__init__(index, target_name)
        self.host = host
        self.port = port

    @property
    def endpoint(self) -> str:
        return f"{self.host}:{self.port}"

    def open(self) -> None:
        self.pid = None  # until the clock handshake that follows completes
        for role in ("task", "ctrl"):
            chan = _transport.connect(self.host, self.port, timeout=self.open_timeout)
            setattr(self, role, chan)
            _transport.send_hello(
                chan, role, target_name=self.target_name, slot=self.index
            )
            _transport.expect_hello(
                chan, timeout=self.open_timeout, peer=self.endpoint
            )

    def torn(self) -> bool:
        """A tear was already observed on either channel.  Does no IO, so
        unlike :meth:`is_alive` it is safe to call off the shipper thread."""
        task, ctrl = self.task, self.ctrl
        return (
            task is None or ctrl is None
            or task.closed or task.eof or ctrl.closed or ctrl.eof
        )

    def is_alive(self) -> bool:
        """The lane is believed live: both channels open, no EOF seen.

        A remote tear is only *observed* on IO, so this also drives a quick
        zero-timeout poll on the ctrl channel (hence: call only from the
        lane's shipper) — sufficient for finding an idle corpse, while
        mid-region tears are caught by the shipper's result-wait loop.
        """
        ctrl = self.ctrl
        if ctrl is None or self.torn():
            return False
        try:
            ctrl.poll(0)  # latches eof if the peer vanished
        except (OSError, ValueError):
            return False
        return not ctrl.eof

    def exit_label(self) -> str:
        return f"connection to {self.endpoint} lost"

    def terminate(self) -> None:
        """Reclaim the lane by tearing both connections.

        The remote agent (if still alive) sees EOF and drops the slot's
        loops; a body already executing there runs to completion remotely
        unless it polls its cancel token — the honest semantics of killing
        a connection rather than a process.
        """
        self.close_channels()


class ClusterTarget(RemoteLaneTarget):
    """A worker virtual target whose pool members are remote agent slots.

    Created by ``virtual_target_create_cluster(tname, endpoints)`` /
    :meth:`PjRuntime.create_cluster`.  Parameters beyond the common target
    options and ``heartbeat_interval`` (the idle probe runs over the ctrl
    connection; of :class:`~repro.dist.remote_target.RemoteLaneTarget`'s
    supervision constants, ``max_restarts`` is the *reconnect* budget per
    slot and ``cancel_grace`` bounds how long a remote body may ignore a
    cancellation before its connections are torn):

    endpoints:
        ``"host:port"`` strings (or ``(host, port)`` tuples) of running
        cluster worker agents (``python -m repro cluster-worker``).
    shards:
        Lanes **per endpoint** — the pool is ``len(endpoints) * shards``
        slots, interleaved across endpoints.  All slots pull one shared
        queue, so dispatch is least-loaded across hosts by construction.
        Slots of a surviving endpoint are unaffected by a dead one — that
        is the shard-failover path.
    """

    kind = "cluster"
    _EV_UP = EventKind.WORKER_CONNECT
    _EV_LOST = _EV_DOWN = EventKind.WORKER_DISCONNECT

    def __init__(
        self,
        name: str,
        endpoints: Sequence[str | tuple[str, int]],
        *,
        shards: int = 1,
        queue_capacity: int | None = None,
        rejection_policy: str = "block",
        heartbeat_interval: float = 1.0,
    ) -> None:
        if not endpoints:
            raise ValueError("cluster target needs at least one endpoint")
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        parsed = [_transport.parse_endpoint(e) for e in endpoints]
        self.endpoints = [f"{h}:{p}" for h, p in parsed]
        self.shards = shards
        super().__init__(
            name,
            # Interleave: slot i lives on endpoint i % len(endpoints), so the
            # first len(endpoints) slots already span every host.
            [
                _ClusterSlot(i, name, *parsed[i % len(parsed)])
                for i in range(len(parsed) * shards)
            ],
            queue_capacity=queue_capacity,
            rejection_policy=rejection_policy,
            heartbeat_interval=heartbeat_interval,
        )

    @property
    def connected_count(self) -> int:
        """Slots whose handshake completed and that have seen no tear since
        (sockets alone do not count: the agent may never answer) — diagnostics."""
        return sum(
            1 for slot in self._slots if slot.pid is not None and not slot.torn()
        )

    def _describe_extra(self) -> str:
        return (
            f" endpoints={self.endpoints} shards={self.shards} "
            f"connected={self.connected_count}/{len(self._slots)}"
        )
