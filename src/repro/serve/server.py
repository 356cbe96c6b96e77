"""A live event-driven HTTP server on virtual targets (paper Fig. 9, real).

The paper's Figure 9 sketches an HTTP server whose accept loop is the event
dispatch thread and whose request handlers are ``#omp target virtual(...)``
regions.  ``repro.sim`` models that shape analytically; this module *runs*
it, on real sockets:

* the asyncio event loop is registered as an EDT virtual target
  (:func:`repro.adapters.register_asyncio_edt`) — the accept loop and all
  request parsing/response writing live on it;
* CPU-bound handler work (the IDEA crypt kernel) is dispatched as
  ``nowait`` target regions to a thread- or process-backed worker target
  through the ordinary :meth:`PjRuntime.invoke_target_block` surface and
  awaited via :func:`as_future` — the loop keeps serving while kernels run;
* admission control is the targets' own bounded queues: a full queue under
  ``reject`` (or ``block`` past its timeout) surfaces as a structured
  :class:`QueueFullError` which the server maps to HTTP 503, while
  ``caller_runs`` degrades to inline execution on the loop (legal, logged,
  measurably bad for tail latency — see ``docs/SERVING.md``);
* per-request deadlines ride the same ``timeout=`` clause every dispatch
  has: expiry withdraws a queued region (or flags a running one's cancel
  token) and the client sees 504;
* graceful drain mirrors ``shutdown(wait=True)`` semantics: stop accepting,
  503 new requests, wait for in-flight ones up to a grace deadline, then
  downgrade to cancellation with a ``describe()`` diagnostic.

Protocol support is deliberately small — HTTP/1.1 with keep-alive, fixed
Content-Length bodies, no chunked encoding, no TLS — enough to point real
tools (curl, ab, ``benchmarks/e2e``) at the runtime without dragging in a
web framework.
"""

from __future__ import annotations

import asyncio
import json
import logging
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..adapters import as_future, register_asyncio_edt
from ..core import PjRuntime, TargetRegion
from ..core.errors import QueueFullError, RegionFailedError, WorkerCrashedError
from ..kernels import crypt
from .stats import ServerStats

__all__ = ["ServeConfig", "HttpServer", "encrypt_payload", "REASONS"]

_logger = logging.getLogger(__name__)

#: Longest a ``block``-policy post may park the loop before it becomes a 503.
ADMISSION_TIMEOUT = 0.5
#: Largest request body accepted; a longer Content-Length is answered 413.
MAX_REQUEST_BYTES = 1 << 20
_DEADLINE = "request deadline"  # a timer's cancel message, not a teardown's

REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

# Cached per interpreter: in a process-backed worker each OS process expands
# the key schedule once, on first request, and reuses it after.
_SUBKEYS: np.ndarray | None = None


def _subkeys() -> np.ndarray:
    global _SUBKEYS
    if _SUBKEYS is None:
        _SUBKEYS = crypt.encryption_subkeys(crypt.generate_key())
    return _SUBKEYS


def encrypt_payload(data: bytes, rounds: int = 1) -> bytes:
    """The CPU-bound request handler body: IDEA-encrypt *data*.

    Module-level (not a closure) so process targets can ship it by
    reference; takes and returns ``bytes`` so the payload crosses process
    boundaries without numpy in the pickle.  *data* length must be a
    multiple of 8 (the cipher's block size) — the server validates that
    before dispatch so malformed payloads cost a 400, not a worker round
    trip.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    keys = _subkeys()
    for _ in range(max(1, rounds)):
        buf = crypt.encrypt(buf, keys)
    return buf.tobytes()


@dataclass
class ServeConfig:
    """Everything that shapes one server instance."""

    host: str = "127.0.0.1"
    port: int = 0                    # 0: let the OS pick (tests, CI)
    backend: str = "thread"          # "thread" | "process"
    workers: int = 4
    queue_capacity: int = 64
    policy: str = "reject"           # block | reject | caller_runs
    request_timeout: float = 10.0    # deadline until 504
    drain_grace: float = 5.0         # graceful-drain budget before hard cancel
    rounds: int = 1                  # encrypt passes per request (CPU knob)
    edt_name: str = "http-edt"
    cpu_target: str = "http-cpu"

    def __post_init__(self) -> None:
        if self.backend not in ("thread", "process"):
            raise ValueError(f"unknown backend {self.backend!r}")


@dataclass
class _Conn:
    """Per-connection bookkeeping for the drain protocol."""

    writer: asyncio.StreamWriter
    busy: bool = False               # a request is mid-flight on it
    opened: float = field(default_factory=time.monotonic)


class HttpServer:
    """The Fig. 9 server: accept loop as EDT, handlers as target regions.

    Lifecycle: construct with a :class:`ServeConfig`, ``await start()``
    inside a running loop, serve, then ``await stop()`` (graceful) or
    ``await stop(drain=False)`` (immediate cancel).  Tests and the CLI can
    also reach the listening port via :attr:`port` after ``start()``.
    """

    def __init__(self, config: ServeConfig, *, runtime: PjRuntime | None = None):
        self.config = config
        self.runtime = runtime if runtime is not None else PjRuntime()
        self._owns_runtime = runtime is None
        self.stats = ServerStats()
        self._server: asyncio.base_events.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._conns: dict[int, _Conn] = {}
        self._draining = False
        self._stopped = False
        self._drain_clean: bool | None = None  # verdict of the last drain
        self._inflight: set[TargetRegion] = set()

    # ---------------------------------------------------------------- lifecycle

    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        """Create the targets and start listening.

        Must run inside the loop that will serve — that loop becomes the
        EDT virtual target, exactly the paper's 'main thread registers
        itself as the event dispatch thread'.
        """
        cfg = self.config
        self._loop = asyncio.get_running_loop()
        if cfg.backend == "process":
            self.runtime.create_process_worker(
                cfg.cpu_target,
                cfg.workers,
                queue_capacity=cfg.queue_capacity,
                rejection_policy=cfg.policy,
            )
        else:
            self.runtime.create_worker(
                cfg.cpu_target,
                cfg.workers,
                queue_capacity=cfg.queue_capacity,
                rejection_policy=cfg.policy,
            )
        register_asyncio_edt(self.runtime, cfg.edt_name, self._loop)
        self._server = await asyncio.start_server(
            self._handle_connection, cfg.host, cfg.port,
            reuse_address=True,
        )
        _logger.info(
            "repro.serve listening on %s:%d (backend=%s workers=%d "
            "capacity=%d policy=%s)",
            cfg.host, self.port, cfg.backend, cfg.workers,
            cfg.queue_capacity, cfg.policy,
        )

    async def stop(self, *, drain: bool = True) -> None:
        """Stop listening and tear down; optionally drain in-flight work."""
        if self._stopped:
            return
        self._stopped = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        clean = False
        if drain:
            clean = await self.drain(self.config.drain_grace)
        else:
            self._hard_cancel("stop(drain=False)")
        # Target teardown joins worker threads/processes — off the loop.  A
        # downgraded drain also downgrades the join: cancelled work must not
        # re-block teardown on the very regions it just gave up on.
        await asyncio.get_running_loop().run_in_executor(
            None, self._shutdown_runtime, clean
        )

    def _shutdown_runtime(self, wait: bool) -> None:
        if self._owns_runtime:
            self.runtime.shutdown(wait=wait)
        else:
            for name in (self.config.cpu_target, self.config.edt_name):
                if self.runtime.has_target(name):
                    self.runtime.unregister_target(name, wait=wait)

    async def drain(self, grace: float) -> bool:
        """Graceful drain: the server-side ``shutdown(wait=True)``.

        New requests get 503 + ``Connection: close``; idle keep-alive
        connections are closed immediately; busy ones get until *grace*
        to finish.  Past the deadline the drain downgrades — in-flight
        regions get ``request_cancel`` and lingering transports are
        aborted — and the diagnostic logs each target's ``describe()``,
        mirroring the EDT ack-timeout warning.  Returns True iff the
        drain was clean (no downgrade).
        """
        self._draining = True
        for conn in list(self._conns.values()):
            if not conn.busy:
                self._close_writer(conn.writer)
        deadline = time.monotonic() + grace
        while any(c.busy for c in self._conns.values()):
            if time.monotonic() >= deadline:
                self._hard_cancel(f"drain grace {grace:.1f}s expired")
                self._drain_clean = False
                return False
            await asyncio.sleep(0.01)
        self._drain_clean = True
        return True

    def _hard_cancel(self, why: str) -> None:
        pending = [r for r in self._inflight if not r.done]
        if pending or self._conns:
            described = ", ".join(
                self.runtime.get_target(n).describe()
                for n in (self.config.cpu_target, self.config.edt_name)
                if self.runtime.has_target(n)
            )
            _logger.warning(
                "repro.serve downgrading drain to cancel (%s): "
                "%d region(s) in flight, %d connection(s) open; %s",
                why, len(pending), len(self._conns), described,
            )
        for region in pending:
            region.request_cancel()
        for conn in list(self._conns.values()):
            transport = conn.writer.transport
            if transport is not None:
                transport.abort()

    def _close_writer(self, writer: asyncio.StreamWriter) -> None:
        try:
            writer.close()
        except RuntimeError:  # pragma: no cover - loop already closing
            pass

    # --------------------------------------------------------------- connection

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Conn(writer)
        self._conns[id(conn)] = conn
        self.stats.bump("connections")
        try:
            while not self._stopped:
                try:
                    request = await self._read_request(reader)
                except asyncio.IncompleteReadError:
                    break
                except ConnectionError:
                    break
                if request is None:  # EOF between requests: clean close
                    break
                conn.busy = True
                try:
                    keep_alive = await self._handle_request(request, writer)
                finally:
                    conn.busy = False
                if not keep_alive or self._draining:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._conns.pop(id(conn), None)
            self._close_writer(writer)

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> dict[str, Any] | None:
        """Parse one HTTP/1.x request; None on clean EOF."""
        headers: dict[str, str] = {}
        try:
            line = await reader.readline()
            if not line:
                return None
            method, path, version = line.decode("latin-1").split(None, 2)
            while True:
                raw = await reader.readline()
                if raw in (b"\r\n", b"\n", b""):
                    break
                if b":" in raw:
                    k, _, v = raw.decode("latin-1").partition(":")
                    headers[k.strip().lower()] = v.strip()
            length = int(headers.get("content-length", "0") or "0")
            if length < 0:
                raise ValueError(length)
        except ValueError:
            # A request line that is not three words, a Content-Length that
            # is not a count, or a line past StreamReader's limit (readline
            # raises ValueError for it): answered, counted, closed.
            return {"error": 400, "detail": "malformed request"}
        if length > MAX_REQUEST_BYTES:
            return {"error": 413,
                    "detail": f"body of {length} bytes exceeds limit"}
        body = await reader.readexactly(length) if length else b""
        return {
            "method": method.upper(),
            "path": path,
            "version": version.strip(),
            "headers": headers,
            "body": body,
        }

    # ------------------------------------------------------------------ request

    async def _handle_request(
        self, request: dict[str, Any], writer: asyncio.StreamWriter
    ) -> bool:
        t0 = time.monotonic()
        extra_headers: list[tuple[str, str]] = []
        if "error" in request:
            status, payload = request["error"], request["detail"].encode()
            keep_alive = False
        else:
            keep_alive = self._wants_keep_alive(request)
            if self._draining:
                self.stats.bump("draining_rejects")
                status, payload = 503, b"server is draining"
                keep_alive = False
            else:
                status, payload, hdrs = await self._route(request)
                extra_headers.extend(hdrs)
        if not keep_alive or self._draining:
            extra_headers.append(("Connection", "close"))
            keep_alive = False
        out = self._render_response(status, payload, extra_headers)
        try:
            writer.write(out)
            await writer.drain()
        except ConnectionError:
            keep_alive = False
        self.stats.record(
            status, time.monotonic() - t0,
            bytes_in=len(request.get("body", b"")), bytes_out=len(out),
        )
        return keep_alive

    def _wants_keep_alive(self, request: dict[str, Any]) -> bool:
        tok = request["headers"].get("connection", "").lower()
        if request["version"].endswith("1.0"):
            return tok == "keep-alive"
        return tok != "close"

    def _render_response(
        self, status: int, payload: bytes,
        extra_headers: list[tuple[str, str]],
    ) -> bytes:
        reason = REASONS.get(status, "Unknown")
        lines = [f"HTTP/1.1 {status} {reason}",
                 f"Content-Length: {len(payload)}"]
        lines.extend(f"{k}: {v}" for k, v in extra_headers)
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        return head + payload

    async def _route(
        self, request: dict[str, Any]
    ) -> tuple[int, bytes, list[tuple[str, str]]]:
        method, path = request["method"], request["path"].split("?", 1)[0]
        if path == "/healthz" and method == "GET":
            return 200, b"ok", []
        if path == "/stats" and method == "GET":
            body = json.dumps(self._stats_payload(), indent=2).encode()
            return 200, body, [("Content-Type", "application/json")]
        if path == "/encrypt" and method == "POST":
            return await self._handle_encrypt(request)
        if path == "/" and method == "GET":
            body = (
                b"repro.serve: event-driven HTTP on virtual targets\n"
                b"POST /encrypt (body length % 8 == 0) | GET /stats | "
                b"GET /healthz\n"
            )
            return 200, body, []
        return 404, f"no route for {method} {path}".encode(), []

    def _stats_payload(self) -> dict[str, Any]:
        snap = self.stats.snapshot()
        # Uniform across thread/process: clients key on one field
        # instead of sniffing target kinds out of the describe() strings.
        snap["backend"] = self.config.backend
        snap["targets"] = {
            name: self.runtime.get_target(name).describe()
            for name in (self.config.cpu_target, self.config.edt_name)
            if self.runtime.has_target(name)
        }
        snap["draining"] = self._draining
        return snap

    async def _handle_encrypt(
        self, request: dict[str, Any]
    ) -> tuple[int, bytes, list[tuple[str, str]]]:
        """Dispatch the crypt kernel to the CPU target; the Fig. 9 handler.

        The whole policy surface of the runtime shows up here:

        * ``nowait`` dispatch + ``as_future`` keeps the loop free;
        * ``QueueFullError`` (reject, or block past ``ADMISSION_TIMEOUT``)
          becomes 503 with the refusing target and policy in headers;
        * a timer past ``request_timeout`` cancels the one future: 504, and
          the region is withdrawn (pending) or flagged (running);
        * a worker crash mid-request becomes 500 with the crash detail —
          an error response, never a hang.
        """
        body = request["body"]
        if not body or len(body) % 8:
            return (400,
                    b"payload must be a non-empty multiple of 8 bytes",
                    [])
        cfg = self.config
        region = TargetRegion(encrypt_payload, body, cfg.rounds,
                              name="http-encrypt")
        try:
            self.runtime.invoke_target_block(
                cfg.cpu_target, region, "nowait",
                timeout=ADMISSION_TIMEOUT,
            )
        except QueueFullError as exc:
            self.stats.bump("rejected")
            return 503, str(exc).encode(), [
                ("Retry-After", "0"),
                ("X-Rejected-By", exc.name),
                ("X-Rejection-Policy", exc.policy or "unknown"),
            ]
        self._inflight.add(region)
        future = as_future(region)
        timer = future.get_loop().call_later(cfg.request_timeout, future.cancel, _DEADLINE)
        try:
            encrypted = await future
        except asyncio.CancelledError as exc:
            if exc.args != (_DEADLINE,):
                raise  # the handler itself was cancelled
            self.stats.bump("timeouts")
            region.request_cancel()
            return (504,
                    f"encrypt exceeded {cfg.request_timeout:.1f}s".encode(),
                    [])
        except RegionFailedError as exc:  # RegionCancelledError included
            self.stats.bump("failures")
            if isinstance(exc.cause, WorkerCrashedError):
                return (500, str(exc.cause).encode(),
                        [("X-Worker-Fault", "crash")])
            return 500, str(exc).encode(), []
        finally:
            timer.cancel()
            self._inflight.discard(region)
        return 200, encrypted, [("Content-Type", "application/octet-stream")]
