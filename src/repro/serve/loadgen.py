"""Closed-loop asyncio HTTP client for the Fig. 9 server.

:func:`run_closed_loop` — *concurrency* workers, each owning one keep-alive
connection, fire the next request the moment the previous response lands —
is how ``repro check --serve`` (:mod:`repro.serve.soak`) and the server's
tests put a burst through a live server and count what came back.  It
measures nothing: the server is timed from another process by
``benchmarks/e2e`` (workloads ``serve_small`` and ``serve_large_process``).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

__all__ = ["LoadResult", "run_closed_loop", "make_payload"]


def make_payload(n_bytes: int = 64) -> bytes:
    """A deterministic /encrypt payload (multiple of the 8-byte block)."""
    n = max(8, (n_bytes + 7) // 8 * 8)
    return bytes(i & 0xFF for i in range(n))


@dataclass
class LoadResult:
    """Outcome of one burst: what was answered, and how."""

    requests: int = 0                 # responses fully received
    errors: int = 0                   # transport-level failures
    statuses: dict[int, int] = field(default_factory=dict)

    def record(self, status: int) -> None:
        self.requests += 1
        self.statuses[status] = self.statuses.get(status, 0) + 1


class _Client:
    """One keep-alive HTTP/1.1 connection with lazy (re)connect."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None
        #: Headers of the most recent response (tests inspect e.g. the
        #: X-Rejected-By rejection diagnostics).
        self.last_headers: dict[str, str] = {}

    async def _connect(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def request(
        self, method: str, path: str, body: bytes = b""
    ) -> tuple[int, bytes, bool]:
        """Send one request; returns (status, body, keep_alive)."""
        if self.writer is None or self.writer.is_closing():
            await self._connect()
        assert self.reader is not None and self.writer is not None
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1")
        self.writer.write(head + body)
        await self.writer.drain()
        return await self._read_response(self.reader)

    async def _read_response(
        self, reader: asyncio.StreamReader
    ) -> tuple[int, bytes, bool]:
        line = await reader.readline()
        if not line:
            raise ConnectionResetError("server closed the connection")
        status = int(line.split(None, 2)[1])
        length = 0
        keep_alive = True
        headers: dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            key, _, value = raw.decode("latin-1").partition(":")
            key = key.strip().lower()
            headers[key] = value.strip()
            if key == "content-length":
                length = int(value.strip())
            elif key == "connection" and value.strip().lower() == "close":
                keep_alive = False
        self.last_headers = headers
        payload = await reader.readexactly(length) if length else b""
        if not keep_alive:
            await self.close()
        return status, payload, keep_alive

    async def close(self) -> None:
        if self.writer is not None:
            try:
                self.writer.close()
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self.reader = self.writer = None


async def run_closed_loop(
    host: str,
    port: int,
    *,
    requests: int,
    concurrency: int = 64,
    payload_bytes: int = 64,
    path: str = "/encrypt",
    method: str = "POST",
) -> LoadResult:
    """Closed-loop run: *concurrency* keep-alive workers, *requests* total."""
    result = LoadResult()
    payload = make_payload(payload_bytes) if method == "POST" else b""
    remaining = requests
    lock = asyncio.Lock()

    async def take() -> bool:
        nonlocal remaining
        async with lock:
            if remaining <= 0:
                return False
            remaining -= 1
            return True

    async def worker() -> None:
        client = _Client(host, port)
        while await take():
            try:
                status, _, _ = await client.request(method, path, payload)
            except (ConnectionError, asyncio.IncompleteReadError, OSError):
                result.errors += 1
                await client.close()
                continue
            result.record(status)
        await client.close()

    await asyncio.gather(*(worker() for _ in range(max(1, concurrency))))
    return result
