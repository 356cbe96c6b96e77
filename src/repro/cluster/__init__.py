"""repro.cluster — socket-connected multi-host virtual targets.

The cluster layer extends :mod:`repro.dist` from child processes to
**remote hosts**: a :class:`ClusterTarget` registers under a name like any
other virtual target — ``virtual_target_create_cluster("grid",
endpoints=["hostA:9001", "hostB:9001"], shards=2)`` — and the directive
layer (``virtual(name)``, scheduling clauses, ``timeout=``, backpressure
policies, ``wait_tag``) works on it unchanged; region bodies execute on
**cluster worker agents** (``python -m repro cluster-worker``) reached over
TCP, with the dist machinery (one shipper thread per lane that opens,
heartbeats, reopens and retires it; restart budgets; clock-synced trace
merge) running over a transport abstraction instead of pipes.

Module map:

* :mod:`~repro.cluster.transport` — framed, versioned message transports:
  the :class:`~repro.cluster.transport.Transport` interface, TCP
  length-prefixed frames, in-process loopback pairs, the hello/version
  handshake;
* :mod:`~repro.cluster.agent` — the remote worker agent (accept loop, task
  and control threads per connection) and
  :func:`~repro.cluster.agent.spawn_agent_process`;
* :mod:`~repro.cluster.target` — the :class:`ClusterTarget` itself:
  endpoint×shard lanes, least-loaded routing off the shared queue,
  reconnect budgets, shard failover.

See the "Cluster targets" section of ``docs/DISTRIBUTION.md``.
"""

from .. import _reexport

_EXPORTS = {
    "AgentHandle": ".agent",
    "ClusterAgent": ".agent",
    "ClusterTarget": ".target",
    "LoopbackTransport": ".transport",
    "TcpTransport": ".transport",
    "Transport": ".transport",
    "TransportListener": ".transport",
    "connect": ".transport",
    "expect_hello": ".transport",
    "listen": ".transport",
    "loopback_pair": ".transport",
    "parse_endpoint": ".transport",
    "send_hello": ".transport",
    "spawn_agent_process": ".agent",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _reexport(globals(), _EXPORTS)
