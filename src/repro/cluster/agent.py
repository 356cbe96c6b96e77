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

:func:`spawn_agent_process` launches an agent as a subprocess on a
kernel-assigned port and parses the announce line — the shared bring-up
path of tests, the check harness and the benchmarks.
"""

from __future__ import annotations

import collections
import logging
import os
import re
import subprocess
import sys
import threading
from typing import Any

from ..core.errors import ProtocolVersionError, RuntimeStateError
from ..dist import wire
from ..dist.worker import _Current, control_loop, task_loop
from . import transport as _transport

__all__ = ["ClusterAgent", "AgentHandle", "spawn_agent_process", "announce_line"]

_logger = logging.getLogger(__name__)

#: Printed (flushed) by the CLI once the agent listens; parents parse the
#: port out of it, so the format is part of the tooling contract.
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


# ------------------------------------------------------------- subprocess


class AgentHandle:
    """A spawned agent subprocess: endpoint + lifecycle control.

    ``endpoint`` is the ``host:port`` string to hand to
    ``virtual_target_create_cluster``; :meth:`terminate` is the fault
    injection of choice (kills every slot the agent hosts at once).
    """

    def __init__(self, process: subprocess.Popen, host: str, port: int) -> None:
        self.process = process
        self.host = host
        self.port = port
        self.output: collections.deque[str] = collections.deque(maxlen=200)
        self._drain = threading.Thread(
            target=self._drain_output, name=f"repro-agent-drain-{port}", daemon=True
        )
        self._drain.start()

    @property
    def pid(self) -> int:
        return self.process.pid

    @property
    def endpoint(self) -> str:
        return f"{self.host}:{self.port}"

    def alive(self) -> bool:
        return self.process.poll() is None

    def terminate(self) -> None:
        """SIGTERM the agent process (all its slots die with it)."""
        if self.alive():
            self.process.terminate()

    def kill(self) -> None:
        if self.alive():
            self.process.kill()

    def wait(self, timeout: float | None = 10.0) -> int | None:
        try:
            return self.process.wait(timeout)
        except subprocess.TimeoutExpired:
            return None

    def close(self, timeout: float = 10.0) -> None:
        """Terminate (escalating to kill) and reap; always safe to call."""
        self.terminate()
        if self.wait(timeout) is None:  # pragma: no cover - stuck agent
            self.kill()
            self.wait(timeout)
        if self.process.stdout is not None:
            try:
                self.process.stdout.close()
            except OSError:  # pragma: no cover
                pass

    def __enter__(self) -> "AgentHandle":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _drain_output(self) -> None:
        # Keep consuming stdout so the agent never blocks on a full pipe;
        # the bounded tail stays available for post-mortems.
        stream = self.process.stdout
        if stream is None:
            return
        try:
            for line in stream:
                self.output.append(line.rstrip("\n"))
        except (OSError, ValueError):
            pass


def spawn_agent_process(
    host: str = "127.0.0.1",
    *,
    startup_timeout: float = 30.0,
    max_slots: int | None = None,
) -> AgentHandle:
    """Start ``python -m repro cluster-worker`` on a kernel-assigned port.

    Blocks until the agent prints its announce line (parsing the port out
    of it) or *startup_timeout* elapses.  The child inherits this process's
    environment plus a ``PYTHONPATH`` entry for the directory this ``repro``
    package was imported from, so source checkouts work without installs.
    """
    import repro as _repro_pkg

    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(_repro_pkg.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = (
        pkg_root + (os.pathsep + existing if existing else "")
    )
    cmd = [sys.executable, "-m", "repro", "cluster-worker", "--listen", f"{host}:0"]
    if max_slots is not None:
        cmd += ["--slots", str(max_slots)]
    process = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    assert process.stdout is not None
    line = ""
    announced = threading.Event()

    def read_announce() -> None:
        nonlocal line
        line = process.stdout.readline()
        announced.set()

    reader = threading.Thread(target=read_announce, daemon=True)
    reader.start()
    if not announced.wait(startup_timeout) or not line:
        process.terminate()
        try:
            process.wait(5.0)
        except subprocess.TimeoutExpired:  # pragma: no cover
            process.kill()
        raise RuntimeStateError(
            f"cluster-worker agent did not announce within {startup_timeout}s"
        )
    match = _ANNOUNCE_RE.search(line)
    if match is None:
        process.terminate()
        process.wait(5.0)
        raise RuntimeStateError(
            f"cluster-worker agent printed {line!r} instead of an announce line"
        )
    return AgentHandle(process, match.group(1), int(match.group(2)))
