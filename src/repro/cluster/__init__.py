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

from .agent import AgentHandle, ClusterAgent, spawn_agent_process
from .target import ClusterTarget
from .transport import (
    LoopbackTransport,
    TcpTransport,
    Transport,
    TransportListener,
    connect,
    expect_hello,
    listen,
    loopback_pair,
    parse_endpoint,
    send_hello,
)

__all__ = [
    "AgentHandle",
    "ClusterAgent",
    "ClusterTarget",
    "LoopbackTransport",
    "TcpTransport",
    "Transport",
    "TransportListener",
    "connect",
    "expect_hello",
    "listen",
    "loopback_pair",
    "parse_endpoint",
    "send_hello",
    "spawn_agent_process",
]
