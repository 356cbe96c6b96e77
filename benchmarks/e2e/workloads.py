"""The six workloads: what each sets up, issues, verifies and tears down.

Every workload builds its inputs from the seed (payload bytes and, in
``run.py``, the arrival schedule), computes the expected outputs once
locally, and raises from ``op`` on anything else, so a wrong byte, a
non-200, an exception or a 10 s no-show all count as failed.  Bodies shipped
to spawn-context workers are stdlib callables (``bytes``), so a worker never
re-imports the runner.  The ``rate`` of each workload was fixed when the
benchmark was sized (README.md) and is repeated in its ``why`` in
``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import re
import select
import signal
import socket
import subprocess
import sys
import threading
import time
import zlib
from typing import Any

from repro.cluster import spawn_agent_process
from repro.core import PjRuntime, TargetRegion
from repro.eventloop import EventLoop, Label
from repro.serve import encrypt_payload

import spans as _spans

__all__ = ["WORKLOADS", "NPROC", "OP_TIMEOUT", "echo", "confine", "spawn_agent",
           "reap_children"]

#: In-flight limit of every workload: connections, or operations.
NPROC = 2
#: An operation that has not completed after this long counts as failed.
OP_TIMEOUT = 10.0
_PAYLOADS = 8  # distinct seeded payloads per workload, cycled by operation


def _payloads(seed: int, size: int) -> list[bytes]:
    rng = random.Random(seed)
    return [rng.randbytes(size) for _ in range(_PAYLOADS)]


def echo(x: Any) -> Any:
    """The no-op region body (thread targets only: it is not shipped)."""
    return x


# CPython threads placed on two cores hand the GIL back and forth across
# them, and which cores the OS picks flips a thread-backed workload between
# two modes (gui_await: 300 vs 1100 clicks/s on the sizing host).  So the
# benchmark process (generator + in-process runtime) keeps to one usable CPU
# and every process it spawns to the others.
_USABLE = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
_MINE = _USABLE[0] if _USABLE else 0


def _pin(pid: int, cpus: set[int]) -> None:
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            os.sched_setaffinity(int(task), cpus)
    except (FileNotFoundError, ProcessLookupError):
        pass  # the process or one of its threads ended meanwhile


def _yardstick_ms() -> float:
    """Best of a few runs of a fixed loop on the calling thread's CPU."""
    best = float("inf")
    for _ in range(8):
        t0 = time.perf_counter()
        x = 0
        for i in range(8000):
            x += i * i
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def confine(*pids: int, quiet_for: str | None = None) -> None:
    """Pin this process to one usable CPU and the processes it spawned
    (*pids* and every multiprocessing child) to the remaining ones.  Threads
    and processes started later inherit from their creator, so call it again
    once lazily spawned lanes exist.

    The host slows each CPU by up to half, independently, in spells of
    seconds.  With *quiet_for*, a fixed loop is timed on every usable CPU
    first and the side that hosts the runtime under test gets the fastest:
    ``"benchmark"`` moves this process there, ``"spawned"`` moves it to the
    slowest so that the spawned processes keep the fastest."""
    global _MINE
    if not _USABLE:
        return
    if quiet_for is not None:
        timed = []
        for cpu in _USABLE:
            os.sched_setaffinity(0, {cpu})
            timed.append((_yardstick_ms(), cpu))
        _MINE = (max if quiet_for == "spawned" else min)(timed)[1]
    _pin(os.getpid(), {_MINE})
    others = set(_USABLE) - {_MINE} or {_MINE}
    for pid in (*pids, *(c.pid for c in multiprocessing.active_children())):
        _pin(pid, others)


def spawn_agent() -> Any:
    agent = spawn_agent_process()
    confine(agent.pid)
    return agent


def reap_children() -> None:
    """Join the spawn-context workers a process target left behind (a
    ``shutdown(wait=False)`` joins nothing), killing any that linger."""
    for child in multiprocessing.active_children():
        child.join(5.0)
        if child.is_alive():
            child.kill()
            child.join()


class Workload:
    """Common shape; ``closed_op`` defaults to the open-phase operation."""

    name = ""
    rate = 0.0          # open-phase arrivals per second
    weight = 1          # operations completed by one closed_op call
    probe_rate = 0.0    # gui_await: tick probes per second, beside the open load
    runtime_in = "benchmark"  # or "spawned": which side gets the quietest CPU

    # What a set-up may own; teardown releases whichever exist.
    rt: PjRuntime | None = None
    server: "ServerProcess | None" = None
    agent: Any = None
    clients: "tuple[HttpClient, ...] | list[HttpClient]" = ()

    def __init__(self, seed: int, spans: Any = _spans.OFF) -> None:
        self.seed = seed
        self.spans = spans

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int, slot: int) -> float | None:
        raise NotImplementedError

    def closed_op(self, i: int, slot: int) -> float | None:
        return self.op(i, slot)

    def probe_op(self, i: int, slot: int) -> float | None:
        raise NotImplementedError

    def pids(self) -> list[int]:
        """The processes this workload spawned itself (pool workers aside)."""
        pids = [self.server.proc.pid] if self.server is not None else []
        return pids + ([self.agent.pid] if self.agent is not None else [])

    def verify_end(self) -> None:
        """Whole-run output check, after the last phase (raises on mismatch)."""

    def counts(self) -> dict[str, float]:
        """Per-layer work counts of this workload's own targets."""
        return {}

    def teardown(self, wait: bool = True) -> None:
        """Release everything ``setup`` acquired, also after a failed run
        (``wait=False``: cancel instead of drain): connections, runtime and
        its worker processes, server subprocess, agent."""
        for client in self.clients:
            client.close()
        if self.rt is not None:
            self.rt.shutdown(wait=wait)
        reap_children()
        if self.server is not None:
            self.server.close()
        if self.agent is not None:
            self.agent.close()
        self.clients, self.rt, self.server, self.agent = (), None, None, None


def _runtime_counts(rt: PjRuntime) -> dict[str, float]:
    c = rt.counters
    return {"core.posted": c["posted"], "core.inline": c["inline"],
            "core.nowait": c["nowait"], "core.await": c["await"]}


# ------------------------------------------------------------------ gui_await


class _Box:
    """What one fired event hands back to the thread that waits for it."""

    __slots__ = ("op_id", "payload", "parent", "done", "result", "error")

    def __init__(self, op_id: int, payload: bytes | None = None) -> None:
        self.op_id = op_id
        self.payload = payload
        self.parent: int | None = None  # span index of the fire, for the handler's span
        self.done = threading.Event()
        self.result: bytes | None = None
        self.error: BaseException | None = None


class GuiAwait(Workload):
    """The paper's headline scenario (§V-A, Fig. 7): a click handler on a
    real EDT offloads ``encrypt_payload(4 KiB)`` in ``await`` mode, then
    updates a label on the EDT.  One event in four is a no-op ``tick`` from
    a thread of its own (so a tick never queues behind a click in the
    generator); its due-to-handler-start time says whether the EDT still
    answers other events meanwhile."""

    name = "gui_await"
    rate = 225.0
    probe_rate = 75.0

    def setup(self) -> None:
        self.payloads = _payloads(self.seed, 4096)
        self.expected = [encrypt_payload(p) for p in self.payloads]
        self.rt = PjRuntime()
        self.rt.create_worker("worker", NPROC)
        self.loop = EventLoop(self.rt, "edt")
        self.label = Label(self.loop, "status")
        self.clicks = 0
        self.loop.on("click", self._on_click)
        self.loop.on("tick", self._on_tick)
        self._click(0)

    def _encrypt(self, box: _Box, parent: int | None) -> bytes:
        with self.spans.span("encrypt_payload", "kernels", box.op_id, parent):
            return encrypt_payload(box.payload)

    def _on_click(self, event: Any) -> None:
        box: _Box = event.payload
        try:
            with self.spans.span("click_handler", "eventloop", box.op_id, box.parent):
                with self.spans.span("await_offload", "core") as here:
                    region = self.rt.invoke_target_block(
                        "worker", TargetRegion(self._encrypt, box, here), "await",
                        timeout=OP_TIMEOUT)
                box.result = region.result()
                with self.spans.span("label_set_text", "eventloop"):
                    self.label.set_text(f"{zlib.crc32(box.result):08x}")
                self.clicks += 1
        except BaseException as exc:  # noqa: BLE001 - handed to the waiting thread
            box.error = exc
        event.record.mark_finished()
        box.done.set()

    def _on_tick(self, event: Any) -> None:
        event.payload.done.set()

    def _fire(self, name: str, box: _Box) -> Any:
        with self.spans.span(f"fire_{name}", "eventloop", box.op_id) as here:
            box.parent = here
            record = self.loop.fire(name, box)
        if not box.done.wait(OP_TIMEOUT):
            raise TimeoutError(f"{name} {box.op_id} not handled in {OP_TIMEOUT}s")
        if box.error is not None:
            raise box.error
        return record

    def _click(self, i: int) -> float:
        k = i % _PAYLOADS
        box = _Box(i, self.payloads[k])
        record = self._fire("click", box)
        if box.result != self.expected[k]:
            raise ValueError(f"click {i}: wrong ciphertext")
        return record.finished_at

    def op(self, i: int, slot: int) -> float:
        return self._click(i)

    def probe_op(self, i: int, slot: int) -> float:
        return self._fire("tick", _Box(-1 - i)).started_at

    def verify_end(self) -> None:
        # Every label write happened on the EDT (an EDTViolationError would
        # have failed its click) and none was lost.
        writes = [v for kind, v in self.label.journal if kind == "set_text"]
        if len(writes) != self.clicks or (writes and writes[-1] != self.label.text):
            raise ValueError(f"label journal has {len(writes)} writes for {self.clicks} clicks")

    def counts(self) -> dict[str, float]:
        return {**_runtime_counts(self.rt), "eventloop.events": len(self.loop.records)}


# -------------------------------------------------------------- dispatch_noop


class DispatchNoop(Workload):
    """``core`` only: no-op bodies on a 2-lane thread worker from a plain
    thread.  Open: ``default``-mode round trips.  Closed: bursts of 256
    ``nowait`` joined by handle plus 64 ``name_as`` joined by ``wait_tag``,
    which amortise the cross-core wake-up so the per-region Python cost of
    the dispatch path is what ``throughput_ops_s`` shows."""

    name = "dispatch_noop"
    rate = 2000.0
    NOWAIT, NAMED = 256, 64
    weight = NOWAIT + NAMED

    def setup(self) -> None:
        self.rt = PjRuntime()
        self.rt.create_worker("worker", NPROC)
        self.op(0, 0)

    def op(self, i: int, slot: int) -> None:
        with self.spans.span("default_rtt", "core", i):
            got = self.rt.invoke_target_block(
                "worker", TargetRegion(echo, i), timeout=OP_TIMEOUT).result()
        if got != i:
            raise ValueError(f"echo {i} returned {got!r}")

    def closed_op(self, i: int, slot: int) -> None:
        invoke = self.rt.invoke_target_block
        tag = f"burst-{slot}"
        with self.spans.span("burst_submit", "core", i):
            handles = [invoke("worker", TargetRegion(echo, k), "nowait")
                       for k in range(self.NOWAIT)]
            handles += [invoke("worker", TargetRegion(echo, k), "name_as", tag=tag)
                        for k in range(self.NAMED)]
        with self.spans.span("burst_join", "core", i):
            self.rt.wait_tag(tag, timeout=OP_TIMEOUT)
            total = sum(h.result(OP_TIMEOUT) for h in handles)
        want = sum(range(self.NOWAIT)) + sum(range(self.NAMED))
        if total != want:
            raise ValueError(f"burst {i} summed to {total}, not {want}")

    def counts(self) -> dict[str, float]:
        return _runtime_counts(self.rt)


# ------------------------------------------------------------------ serve_*


class HttpClient:
    """One blocking keep-alive HTTP/1.1 connection."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=OP_TIMEOUT)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")
        self.host = host

    def request(self, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
        head = (f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode("latin-1")
        self.sock.sendall(head + body)
        status_line = self.rfile.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split(None, 2)[1])
        length = 0
        while True:
            line = self.rfile.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            key, _, value = line.partition(b":")
            if key.strip().lower() == b"content-length":
                length = int(value)
        return status, self.rfile.read(length) if length else b""

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


class ServerProcess:
    """``python -m repro serve`` as a subprocess in its own session, so the
    generator's GIL is not the server's and a failed run can reap the
    server's own worker processes with it."""

    def __init__(self, backend: str, workers: int) -> None:
        src = os.path.dirname(os.path.dirname(os.path.abspath(sys.modules["repro"].__file__)))
        env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED="1")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--backend", backend,
             "--workers", str(workers), "--port", "0"],
            stdout=subprocess.PIPE, text=True, env=env,
            start_new_session=True)
        confine(self.proc.pid)  # before it starts threads or pool workers
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
            line = self.proc.stdout.readline() if ready else ""
            match = re.search(r"http://([\w.]+):(\d+)/", line)
            if match is None:
                raise RuntimeError(f"server announced {line!r}")
        except BaseException:
            self.close()
            raise
        self.host, self.port = match.group(1), int(match.group(2))

    def stats(self) -> dict[str, Any]:
        client = HttpClient(self.host, self.port)
        try:
            status, body = client.request("GET", "/stats")
        finally:
            client.close()
        if status != 200:
            raise RuntimeError(f"/stats answered {status}")
        return json.loads(body)

    def close(self) -> None:
        proc = self.proc
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)  # graceful drain
            try:
                proc.wait(10.0)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # whatever the drain left behind
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait()
        proc.stdout.close()


class _Serve(Workload):
    backend = ""
    size = 0
    runtime_in = "spawned"

    def setup(self) -> None:
        self.payloads = _payloads(self.seed, self.size)
        self.expected = [encrypt_payload(p) for p in self.payloads]
        self.server = ServerProcess(self.backend, NPROC)
        self.clients = [HttpClient(self.server.host, self.server.port) for _ in range(NPROC)]
        self.op(0, 0)

    def op(self, i: int, slot: int) -> None:
        k = i % _PAYLOADS
        with self.spans.span("POST /encrypt", "serve", i):
            status, body = self.clients[slot].request("POST", "/encrypt", self.payloads[k])
        if status != 200 or body != self.expected[k]:
            raise ValueError(f"request {i}: status {status}, body matches: "
                             f"{body == self.expected[k]}")

    def counts(self) -> dict[str, float]:
        s = self.server.stats()
        return {"serve.requests": s["requests"], "serve.rejected_503": s["rejected"],
                "serve.timeouts_504": s["timeouts"], "serve.failures_500": s["failures"],
                "serve.bytes_in": s["bytes_in"], "serve.bytes_out": s["bytes_out"]}


class ServeSmall(_Serve):
    """Fig. 9: 64 B ``POST /encrypt`` against the thread-backed server.
    ``serve`` + ``adapters`` (asyncio <-> thread hand-off) + ``core``
    dominate; the kernel is a small share."""

    name = "serve_small"
    rate = 300.0
    backend = "thread"
    size = 64


class ServeLargeProcess(_Serve):
    """The same server used differently: process backend and 64 KiB bodies,
    so ``kernels`` and ``dist`` (pickle + pipe each way) dominate and HTTP
    parsing is negligible.  A ``serve`` fast path that helps ``serve_small``
    must not move this one."""

    name = "serve_large_process"
    rate = 100.0
    backend = "process"
    size = 64 * 1024


# ------------------------------------------------- process_large, cluster_small


class _Echo(Workload):
    """Direct ``invoke_target_block`` of ``bytes(data)`` on a remote-lane
    target; the echo is checked by length and ``zlib.crc32``."""

    target = ""
    size = 0

    def _checks(self) -> None:
        self.payloads = _payloads(self.seed, self.size)
        self.crcs = [zlib.crc32(p) for p in self.payloads]

    def op(self, i: int, slot: int) -> None:
        k = i % _PAYLOADS
        with self.spans.span("echo_rtt", "core", i):
            got = self.rt.invoke_target_block(
                self.target, TargetRegion(bytes, self.payloads[k]),
                timeout=OP_TIMEOUT).result()
        if len(got) != self.size or zlib.crc32(got) != self.crcs[k]:
            raise ValueError(f"echo {i}: {len(got)} bytes, crc mismatch")


class ProcessLarge(_Echo):
    """Per-**byte** cost of the remote data plane: 1 MiB argument and result
    through ``create_process_worker`` (pickle + pipe).  ``serve`` and
    ``eventloop`` are bypassed."""

    name = "process_large"
    rate = 60.0
    target = "proc"
    size = 1 << 20

    def setup(self) -> None:
        self._checks()
        self.rt = PjRuntime()
        self.proc = self.rt.create_process_worker(self.target, NPROC)
        self.op(0, 0)

    def counts(self) -> dict[str, float]:
        return {**_runtime_counts(self.rt), "dist.respawns": self.proc.restart_count}


class ClusterSmall(_Echo):
    """Per-**message** cost of the framed-TCP path: 64 B echoes to one
    loopback agent with two shards.  ``heartbeat_interval=60`` works around
    the supervisor defect recorded in README.md (healthy lanes are respawned
    under back-to-back dispatch with the default 1.0)."""

    name = "cluster_small"
    rate = 600.0
    target = "grid"
    size = 64

    def setup(self) -> None:
        self._checks()
        self.agent = spawn_agent()
        self.rt = PjRuntime()
        self.cluster = self.rt.create_cluster(
            self.target, [self.agent.endpoint], shards=NPROC, heartbeat_interval=60.0)
        self.op(0, 0)

    def counts(self) -> dict[str, float]:
        return {**_runtime_counts(self.rt), "cluster.reconnects": self.cluster.restart_count}


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (GuiAwait, DispatchNoop, ServeSmall, ServeLargeProcess,
                        ProcessLarge, ClusterSmall)
}
