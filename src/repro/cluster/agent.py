"""The remote end of a cluster target: a socket-serving worker agent.

``python -m repro cluster-worker --listen HOST:PORT`` runs a
:class:`ClusterAgent` — the cluster counterpart of
:func:`repro.dist.worker.worker_main`, with the ``multiprocessing`` pipes
replaced by accepted TCP connections.  One agent process hosts any number
of worker *slots*: a parent-side :class:`~repro.cluster.target.ClusterTarget`
opens **two** connections per slot (a ``task`` channel and a ``ctrl``
channel, mirroring the two pipes of a process target) and the agent pairs
them by the ``(target_name, slot)`` identity carried in the hello frames.

Per connection, after the version handshake
(:func:`~repro.cluster.transport.expect_hello` — a checkout mismatch dies
there with :class:`~repro.core.errors.ProtocolVersionError`, never inside
message dispatch):

* a ``task`` connection gets a thread running
  :func:`repro.dist.worker.task_loop` — the *same* loop a process worker's
  main thread runs (clock probes, regions executed as real
  ``TargetRegion`` instances with working cancel tokens, one
  :class:`~repro.dist.wire.ResultMsg` back per task);
* a ``ctrl`` connection gets a thread running
  :func:`repro.dist.worker.control_loop`: heartbeat pongs and cooperative
  cancellation of the slot's currently executing region.

Because slots are threads in one agent process, an agent is a *locality*
unit, not an isolation unit — one agent dying takes all its slots with it,
which is precisely the failure the parent-side shipper's reconnect and
restart-budget machinery (and ``repro check --cluster``) exercises.

:func:`spawn_agent_process` forks a loopback agent from this interpreter's
lane server (:mod:`repro.dist.lane_server`) on a kernel-assigned port and
reads the port back through a pipe — the shared bring-up path of tests,
the check harness and the benchmarks, a fork instead of an interpreter
boot.  The agent is the lane server's child, in no
``multiprocessing.active_children()``; it never runs the creator's main
module, prints nothing, and exits once the creator is gone.
"""

from __future__ import annotations

import logging
import os
import re
import signal
import threading
from multiprocessing import connection, parent_process
from typing import Any

from ..core.errors import ProtocolVersionError, RuntimeStateError
from ..dist import wire
from ..dist.worker import _Current, control_loop, task_loop
from . import transport as _transport

__all__ = ["ClusterAgent", "AgentHandle", "spawn_agent_process", "announce_line"]

_logger = logging.getLogger(__name__)

#: Printed (flushed) by ``cluster-worker`` once the agent listens; tools
#: that start one parse the port out of it, so the format is a contract.
_ANNOUNCE_RE = re.compile(r"listening on ([^\s:]+):(\d+)")


def announce_line(host: str, port: int) -> str:
    """The one-line banner a freshly started agent prints."""
    return (
        f"repro cluster-worker listening on {host}:{port} "
        f"(pid {os.getpid()}, protocol {wire.PROTOCOL_VERSION})"
    )


class ClusterAgent:
    """Accepts task/ctrl connections and serves worker slots over them.

    ``start()`` binds the listener (``port=0`` → kernel-assigned, see
    :attr:`port`) and runs the accept loop on a daemon thread, so tests and
    benchmarks can embed an in-process agent; the CLI calls
    :meth:`serve_forever` instead, which blocks until :meth:`stop`.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_slots: int | None = None,
    ) -> None:
        if max_slots is not None and max_slots < 1:
            raise ValueError(f"max_slots must be >= 1, got {max_slots}")
        self._host = host
        self._requested_port = port
        self.max_slots = max_slots
        self._listener: _transport.TransportListener | None = None
        self._accept_thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._currents: dict[tuple[str, int], _Current] = {}
        self._transports: list[Any] = []
        self._threads: set[threading.Thread] = set()  # one per live connection
        self.connections_served = 0
        self.tasks_executed = 0

    # ------------------------------------------------------------- lifecycle

    @property
    def port(self) -> int:
        if self._listener is None:
            raise RuntimeStateError("cluster agent is not started")
        return self._listener.port

    @property
    def host(self) -> str:
        return self._host

    @property
    def running(self) -> bool:
        return self._listener is not None and not self._stop.is_set()

    def start(self) -> "ClusterAgent":
        if self._listener is not None:
            raise RuntimeStateError("cluster agent is already started")
        self._listener = _transport.listen(self._host, self._requested_port)
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            name=f"repro-cluster-agent-{self._listener.port}",
            daemon=True,
        )
        self._accept_thread.start()
        return self

    def serve_forever(self) -> None:
        """Blocking variant for the CLI: start (if needed) and wait."""
        if self._listener is None:
            self.start()
        self._stop.wait()

    def stop(self, *, join_timeout: float = 5.0) -> None:
        """Close the listener and every live connection; join threads."""
        self._stop.set()
        if self._listener is not None:
            self._listener.close()
        with self._lock:
            transports = list(self._transports)
        for tr in transports:
            try:
                tr.close()
            except OSError:  # pragma: no cover - already torn
                pass
        if self._accept_thread is not None and self._accept_thread.is_alive():
            self._accept_thread.join(join_timeout)
        with self._lock:
            threads = list(self._threads)
        for th in threads:
            if th.is_alive() and th is not threading.current_thread():
                th.join(join_timeout)

    def __enter__(self) -> "ClusterAgent":
        return self.start() if self._listener is None else self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # ------------------------------------------------------------ accepting

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stop.is_set():
            try:
                tr = self._listener.accept(timeout=0.5)
            except OSError:
                return  # listener closed: shutting down
            if tr is None:
                continue
            with self._lock:
                self._transports.append(tr)
            th = threading.Thread(
                target=self._serve_connection,
                args=(tr,),
                name=f"repro-cluster-conn-{self.connections_served}",
                daemon=True,
            )
            with self._lock:
                self._threads.add(th)
                self.connections_served += 1
            th.start()

    def _serve_connection(self, tr: Any) -> None:
        try:
            try:
                hello = _transport.expect_hello(tr, peer=getattr(tr, "peer", None))
            except ProtocolVersionError as exc:
                # Reply with *our* hello before closing so the mismatched
                # client raises the same structured error on its side.
                _logger.warning("rejecting cluster connection: %s", exc)
                try:
                    _transport.send_hello(tr, "agent")
                except OSError:
                    pass
                return
            except (RuntimeStateError, EOFError, OSError) as exc:
                _logger.warning("malformed cluster handshake: %r", exc)
                return
            if hello.role == "task" and self.max_slots is not None:
                with self._lock:
                    task_count = sum(
                        1 for th in self._threads
                        if th.is_alive() and th.name.startswith("repro-cluster-task")
                    )
                if task_count >= self.max_slots:
                    _logger.warning(
                        "refusing task connection for %r slot %d: agent is "
                        "capped at %d slots", hello.target_name, hello.slot,
                        self.max_slots,
                    )
                    return
            try:
                _transport.send_hello(
                    tr, "agent", target_name=hello.target_name, slot=hello.slot
                )
            except OSError:
                return
            current = self._current_for(hello.target_name, hello.slot)
            threading.current_thread().name = (
                f"repro-cluster-{hello.role}-{hello.target_name}-{hello.slot}"
            )
            if self._stop.is_set():
                return  # accepted while stop() was closing the others
            if hello.role == "task":
                task_loop(tr, current, executed=self._count_task)
            elif hello.role == "ctrl":
                control_loop(tr, current)
            else:
                _logger.warning("unknown connection role %r; closing", hello.role)
        finally:
            try:
                tr.close()
            except OSError:  # pragma: no cover
                pass
            with self._lock:
                if tr in self._transports:
                    self._transports.remove(tr)
                self._threads.discard(threading.current_thread())

    def _current_for(self, target_name: str, slot: int) -> _Current:
        # task and ctrl connections of one lane meet here: the ctrl loop
        # cancels whatever region the task loop registered.
        with self._lock:
            return self._currents.setdefault((target_name, slot), _Current())

    def _count_task(self) -> None:
        with self._lock:
            self.tasks_executed += 1


# ---------------------------------------------------------- forked agents


class AgentHandle:
    """A loopback agent forked from the lane server: endpoint + lifecycle.

    ``endpoint`` is the ``host:port`` string to hand to
    ``virtual_target_create_cluster``; :meth:`terminate` is the fault
    injection of choice (kills every slot the agent hosts at once).
    """

    def __init__(self, popen: Any, host: str, port: int) -> None:
        self._popen = popen
        self.host = host
        self.port = port

    @property
    def pid(self) -> int:
        return self._popen.pid

    @property
    def endpoint(self) -> str:
        return f"{self.host}:{self.port}"

    def alive(self) -> bool:
        return self._popen.poll() is None

    def terminate(self) -> None:
        """SIGTERM the agent process (all its slots die with it)."""
        self._popen.terminate()

    def kill(self) -> None:
        self._popen.kill()

    def wait(self, timeout: float | None = 10.0) -> int | None:
        """The agent's exit code, or ``None`` if it still runs at *timeout*."""
        return self._popen.wait(timeout)

    def close(self, timeout: float = 10.0) -> None:
        """Terminate (escalating to kill) and reap; always safe to call."""
        self.terminate()
        if self.wait(timeout) is None:  # pragma: no cover - stuck agent
            self.kill()
            self.wait(None)
        self._popen.close()

    def __enter__(self) -> "AgentHandle":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


#: How long the creator of a forked agent waits for its port.
AGENT_STARTUP_TIMEOUT = 30.0


def _serve_forked(port_conn: Any) -> None:
    """A forked agent's body: listen, send the port (or why not) back,
    serve until the interpreter that spawned it is gone.  Its creator's
    handle ends it; a Ctrl-C meant for the creator does not."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    null = os.open(os.devnull, os.O_WRONLY)  # never onto the creator's terminal
    os.dup2(null, 1)
    os.dup2(null, 2)
    os.close(null)
    try:
        agent = ClusterAgent().start()
    except OSError as exc:
        port_conn.send(f"cannot listen on loopback: {exc}")
        return
    port_conn.send(agent.port)
    port_conn.close()
    connection.wait([parent_process().sentinel])


def spawn_agent_process() -> AgentHandle:
    """Fork an agent from this interpreter's lane server on a loopback port.

    Blocks until the agent sends its port back through a pipe or
    :data:`AGENT_STARTUP_TIMEOUT` elapses; the first call of an interpreter
    also boots the lane server (:mod:`repro.dist.lane_server`).  The agent
    imports what it serves itself, runs with ``sys.path`` and the working
    directory this interpreter has now, prints nothing, is in no
    ``multiprocessing.active_children()`` and exits once this interpreter
    is gone or the returned handle is garbage-collected.
    """
    from ..dist import lane_server

    port_r, port_w = connection.Pipe(duplex=False)
    with port_r:
        with port_w:
            popen = lane_server.fork_detached(_serve_forked, port_w)
        handle = AgentHandle(popen, "127.0.0.1", 0)
        try:
            if not port_r.poll(AGENT_STARTUP_TIMEOUT):
                raise RuntimeStateError(
                    f"cluster agent did not listen within {AGENT_STARTUP_TIMEOUT}s"
                )
            try:
                handle.port = port_r.recv()
            except EOFError:
                raise RuntimeStateError(
                    f"cluster agent exited with code {handle.wait(5.0)} before listening"
                ) from None
            if isinstance(handle.port, str):  # why it could not listen
                raise RuntimeStateError(handle.port)
        except BaseException:
            handle.close()
            raise
    return handle
