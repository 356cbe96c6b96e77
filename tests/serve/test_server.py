"""Request-path contracts of the live Fig. 9 server.

Everything here runs a real :class:`~repro.serve.server.HttpServer` on an
ephemeral localhost port and talks to it over actual sockets with the
load generator's client — no mocked transports, so a passing suite means
the paper's serving story works end to end on this host.
"""

from __future__ import annotations

import asyncio
import json
import socket

import pytest

from repro.serve import HttpServer, ServeConfig, encrypt_payload, make_payload
from repro.serve.loadgen import _Client, run_closed_loop


def serve(cfg: ServeConfig, body):
    """Start a server, run ``await body(server)``, always stop cleanly."""

    async def main():
        server = HttpServer(cfg)
        await server.start()
        try:
            return await body(server)
        finally:
            await server.stop()

    return asyncio.run(main())


def cfg(**overrides) -> ServeConfig:
    base = dict(backend="thread", workers=2, queue_capacity=8,
                policy="reject")
    base.update(overrides)
    return ServeConfig(**base)


# --------------------------------------------------------------- round trips


@pytest.mark.parametrize("policy", ["block", "reject", "caller_runs"])
def test_roundtrip_under_every_rejection_policy(policy):
    """A concurrent burst completes under each admission policy: every
    request is answered, and the only outcomes are success or rejection."""

    async def body(server):
        return await run_closed_loop(
            "127.0.0.1", server.port, requests=60, concurrency=8,
            payload_bytes=64,
        )

    result = serve(cfg(policy=policy, admission_timeout=0.2), body)
    assert result.requests == 60
    assert result.errors == 0
    assert set(result.statuses) <= {200, 503}, result.statuses
    assert result.statuses.get(200, 0) >= 1


def test_encrypt_response_is_the_kernel_output():
    payload = make_payload(64)

    async def body(server):
        client = _Client("127.0.0.1", server.port)
        status, response, _ = await client.request("POST", "/encrypt", payload)
        await client.close()
        return status, response

    status, response = serve(cfg(), body)
    assert status == 200
    assert response == encrypt_payload(payload)


def test_rejection_maps_to_503_with_structured_headers():
    """Satellite 1, server side: a full bounded queue surfaces as 503 and
    the response names the refusing target and its policy."""

    async def body(server):
        # 6 slow requests at once against 1 worker + capacity 1: at least
        # 4 must be rejected at admission.
        clients = [_Client("127.0.0.1", server.port) for _ in range(6)]
        results = await asyncio.gather(
            *(c.request("POST", "/encrypt", make_payload(4096))
              for c in clients)
        )
        rejected = [c.last_headers for c, (status, _, _) in
                    zip(clients, results) if status == 503]
        statuses = [status for status, _, _ in results]
        for c in clients:
            await c.close()
        return statuses, rejected, server.stats.snapshot()

    statuses, rejected, snap = serve(
        cfg(workers=1, queue_capacity=1, rounds=40), body
    )
    assert statuses.count(503) >= 1, statuses
    assert set(statuses) <= {200, 503}
    for headers in rejected:
        assert headers["x-rejected-by"] == "http-cpu"
        assert headers["x-rejection-policy"] == "reject"
    assert snap["rejected"] == statuses.count(503)


def test_keep_alive_reuses_one_connection():
    async def body(server):
        client = _Client("127.0.0.1", server.port)
        for _ in range(5):
            status, _, keep = await client.request(
                "POST", "/encrypt", make_payload(16))
            assert status == 200 and keep
        await client.close()
        return server.stats.snapshot()

    snap = serve(cfg(), body)
    assert snap["requests"] == 5
    assert snap["connections"] == 1


def test_request_deadline_maps_to_504():
    """Satellite: the dispatch's ``timeout=`` clause surfaces as 504."""

    async def body(server):
        client = _Client("127.0.0.1", server.port)
        status, message, _ = await client.request(
            "POST", "/encrypt", make_payload(8192))
        await client.close()
        return status, message, server.stats.snapshot()

    status, message, snap = serve(
        cfg(workers=1, request_timeout=0.1, rounds=2000), body
    )
    assert status == 504
    assert b"exceeded" in message
    assert snap["timeouts"] == 1


# ------------------------------------------------------------------- routing


def test_small_routes_and_errors():
    async def body(server):
        client = _Client("127.0.0.1", server.port)
        out = {}
        out["health"] = await client.request("GET", "/healthz")
        out["stats"] = await client.request("GET", "/stats")
        out["root"] = await client.request("GET", "/")
        out["missing"] = await client.request("GET", "/nope")
        out["badlen"] = await client.request("POST", "/encrypt", b"123")
        await client.close()
        return out

    out = serve(cfg(), body)
    assert out["health"][0] == 200 and out["health"][1] == b"ok"
    assert out["root"][0] == 200
    assert out["missing"][0] == 404
    assert out["badlen"][0] == 400
    stats = json.loads(out["stats"][1])
    assert "http-cpu" in stats["targets"]
    assert "http-edt" in stats["targets"]
    assert stats["draining"] is False


def _raw_exchange(port: int, request: bytes) -> bytes:
    """Send *request* on a plain socket and read to end of stream.  The
    server may close while bytes of an over-long line are still unread, and
    that resets the connection *after* its answer: what arrived is kept."""
    received = b""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        try:
            sock.sendall(request)
            while chunk := sock.recv(65536):
                received += chunk
        except ConnectionError:
            pass
    return received


@pytest.mark.parametrize("header", [
    b"Content-Length: abc",
    b"Content-Length: -5",
    b"X-Filler: " + b"a" * (70 * 1024),  # past StreamReader's 64 KiB line limit
], ids=["non-numeric-length", "negative-length", "over-long-line"])
def test_unparsable_request_is_answered_400_and_counted(header, caplog):
    """A structured error at the byte boundary, never a reset: the request is
    answered, counted in ``/stats`` and the connection closed — and nothing
    escapes ``_handle_connection`` for asyncio to log."""

    async def body(server):
        request = b"POST /encrypt HTTP/1.1\r\nHost: x\r\n" + header + b"\r\n\r\n"
        answer = await asyncio.to_thread(_raw_exchange, server.port, request)
        return answer, server.stats.snapshot()

    with caplog.at_level("ERROR", logger="asyncio"):
        answer, snap = serve(cfg(), body)
    head = answer.split(b"\r\n\r\n", 1)[0].split(b"\r\n")
    assert head[0] == b"HTTP/1.1 400 Bad Request"
    assert b"Connection: close" in head
    assert snap["statuses"] == {"400": 1} and snap["requests"] == 1
    assert not caplog.records, [r.getMessage() for r in caplog.records]


# --------------------------------------------------------------------- drain


def test_graceful_drain_finishes_inflight_requests():
    """``stop()`` mirrors ``shutdown(wait=True)``: the in-flight request
    completes with 200 and the drain reports clean."""

    async def main():
        server = HttpServer(cfg(workers=1, rounds=60))
        await server.start()
        client = _Client("127.0.0.1", server.port)
        inflight = asyncio.create_task(
            client.request("POST", "/encrypt", make_payload(4096)))
        await asyncio.sleep(0.05)  # request is on the worker
        await server.stop()        # graceful: default 5s grace
        status, _, _ = await inflight
        await client.close()
        return status, server._drain_clean

    status, clean = asyncio.run(main())
    assert status == 200
    assert clean is True


def test_drain_downgrades_to_cancel_past_grace(caplog):
    """Satellite 2, server side: a drain that cannot finish within its
    grace downgrades to cancellation — with a diagnostic — instead of
    hanging the accept loop forever."""
    import logging

    async def main():
        server = HttpServer(
            cfg(workers=1, rounds=4000, drain_grace=0.2,
                request_timeout=30.0))
        await server.start()
        client = _Client("127.0.0.1", server.port)
        inflight = asyncio.create_task(
            client.request("POST", "/encrypt", make_payload(8192)))
        await asyncio.sleep(0.1)   # request is crunching on the worker
        await server.stop()        # grace 0.2s cannot cover it
        outcome: object
        try:
            outcome = await asyncio.wait_for(inflight, timeout=5)
        except (ConnectionError, asyncio.IncompleteReadError) as exc:
            outcome = exc
        await client.close()
        return server._drain_clean, outcome

    with caplog.at_level(logging.WARNING, logger="repro.serve.server"):
        clean, outcome = asyncio.run(main())
    assert clean is False
    # The aborted transport is the expected client-side view.
    assert isinstance(outcome, (ConnectionError, asyncio.IncompleteReadError))
    assert any("downgrading drain to cancel" in r.message
               for r in caplog.records)


def test_requests_during_drain_get_503():
    async def main():
        server = HttpServer(cfg())
        await server.start()
        port = server.port
        client = _Client("127.0.0.1", port)
        status, _, _ = await client.request("POST", "/encrypt",
                                            make_payload(16))
        assert status == 200
        server._draining = True    # the drain window, frozen open
        status, body, keep = await client.request("POST", "/encrypt",
                                                  make_payload(16))
        await client.close()
        server._draining = False
        await server.stop()
        return status, body, keep, server.stats.snapshot()

    status, body, keep, snap = asyncio.run(main())
    assert status == 503
    assert b"draining" in body
    assert keep is False
    assert snap["draining_rejects"] == 1


def test_latency_samples_are_a_window_and_counters_stay_exact():
    """A long-lived server must not keep one float per request forever, nor
    sort them all on every ``GET /stats``: percentiles cover the most recent
    ``LATENCY_WINDOW`` requests, the counters every request."""
    from repro.serve.stats import LATENCY_WINDOW, ServerStats

    stats = ServerStats()
    extra = 10
    for i in range(LATENCY_WINDOW + extra):
        # The first `extra` requests are slow and must age out of the window.
        stats.record(200, 9.0 if i < extra else 0.001, bytes_in=1, bytes_out=2)
    snap = stats.snapshot()
    assert len(stats.latencies_s) == LATENCY_WINDOW
    assert snap["requests"] == snap["statuses"]["200"] == LATENCY_WINDOW + extra
    assert (snap["bytes_in"], snap["bytes_out"]) == (snap["requests"], 2 * snap["requests"])
    assert snap["latency_ms"]["max"] == 1.0
