"""Per-layer metrics: what the traced pass measures besides the workload.

A layer is a ``src/repro`` subpackage.  Each probe times calls from this
file into one layer's public functions (p50 over up to ``CALLS`` calls, cut
short by a time budget that scales with ``--seconds``), so a change to one
layer moves its own number here and, by the table below, a named end-to-end
metric on a named workload.  ``sim``, ``check``, ``explore`` and ``bench``
are on no request path and get no metrics.

Counts (``core.posted`` ... ``serve.bytes_out``, ``eventloop.events``) are
not probed: they come from the traced workload's own targets and are 0 on a
workload that bypasses the layer, which is the check that it does.
``dist.respawns`` and ``cluster.reconnects`` add the probes' targets to the
workload's and must be 0.
"""

from __future__ import annotations

import asyncio
import random
import threading
import time
import zlib
from typing import Any, Callable

from repro import obs
from repro.adapters import as_future, register_asyncio_edt
from repro.bench import percentile
from repro.cluster import connect, listen
from repro.compiler import compile_source
from repro.core import PjRuntime, TargetRegion
from repro.dist import wire
from repro.eventloop import EventLoop
from repro.openmp import parallel
from repro.serve import encrypt_payload

import loadgen
from workloads import (NPROC, OP_TIMEOUT, DispatchNoop, GuiAwait, HttpClient, ServerProcess,
                       confine, echo, reap_children, spawn_agent)

__all__ = ["PER_LAYER", "probe_all", "CALLS"]

CALLS = 300

#: name, unit, better, and the prediction written down before measuring:
#: which end-to-end metric the layer metric should move, on which workload.
PER_LAYER: list[tuple[str, str, str, str]] = [
    ("kernels.encrypt_64B_us", "us", "lower", "latency_p50_ms, throughput_ops_s on serve_small"),
    ("kernels.encrypt_4KiB_us", "us", "lower", "latency_p50_ms, throughput_ops_s on gui_await"),
    ("kernels.encrypt_64KiB_ms", "ms", "lower", "latency_p50_ms, throughput_ops_s on serve_large_process"),
    ("core.region_create_us", "us", "lower", "throughput_ops_s on dispatch_noop"),
    ("core.nowait_submit_us", "us", "lower", "throughput_ops_s on dispatch_noop (submit cost is most of it)"),
    ("core.default_rtt_us", "us", "lower", "latency_p50_ms on dispatch_noop; one share on serve_small"),
    ("core.await_rtt_us", "us", "lower", "latency_p50_ms on gui_await (paid once per in-flight click)"),
    ("core.wait_tag4_us", "us", "lower", "throughput_ops_s on dispatch_noop"),
    ("core.queue_wait_us", "us", "lower", "latency_p90_ms on dispatch_noop, gui_await"),
    ("core.exec_us", "us", "lower", "throughput_ops_s on dispatch_noop"),
    ("core.posted", "count", "higher", "work count: regions posted by the workload's in-process runtime"),
    ("core.inline", "count", "higher", "work count: regions run inline (Algorithm 1 line 7)"),
    ("core.nowait", "count", "higher", "work count: nowait dispatches"),
    ("core.await", "count", "higher", "work count: await dispatches (gui_await only)"),
    ("eventloop.fire_us", "us", "lower", "latency_p50_ms on gui_await"),
    ("eventloop.dispatch_latency_us", "us", "lower", "eventloop.edt_probe_p90_ms, latency_p50_ms on gui_await"),
    ("eventloop.invoke_and_wait_us", "us", "lower", "latency_p50_ms on gui_await"),
    ("eventloop.edt_probe_p90_ms", "ms", "lower", "EDT responsiveness under gui_await's open load (a user-felt number; see README)"),
    ("eventloop.events", "count", "higher", "work count: events fired at the EDT (gui_await only)"),
    ("adapters.as_future_rtt_us", "us", "lower", "latency_p50_ms, throughput_ops_s on serve_small; diluted on serve_large_process"),
    ("adapters.edt_post_rtt_us", "us", "lower", "latency_p50_ms on serve_small"),
    ("serve.healthz_rtt_us", "us", "lower", "latency_p50_ms, throughput_ops_s on serve_small"),
    ("serve.encrypt_rtt_us", "us", "lower", "latency_p50_ms on serve_small"),
    ("serve.unattributed_us", "us", "lower", "latency_p50_ms on serve_small (the gap the next issue attacks)"),
    ("serve.requests", "count", "higher", "work count (serve_small, serve_large_process)"),
    ("serve.rejected_503", "count", "lower", "failed on the serve workloads"),
    ("serve.timeouts_504", "count", "lower", "failed on the serve workloads"),
    ("serve.failures_500", "count", "lower", "failed on the serve workloads"),
    ("serve.bytes_in", "count", "higher", "work count"),
    ("serve.bytes_out", "count", "higher", "work count"),
    ("dist.wire_dumps_64B_us", "us", "lower", "latency_p50_ms on cluster_small"),
    ("dist.wire_dumps_1MiB_us", "us", "lower", "latency_p50_ms on process_large (< 15 % of it)"),
    ("dist.wire_loads_1MiB_us", "us", "lower", "latency_p50_ms on process_large (< 15 % of it)"),
    ("dist.rtt_64B_us", "us", "lower", "lower bound of latency_p50_ms on cluster_small"),
    ("dist.rtt_1MiB_ms", "ms", "lower", "latency_p50_ms, throughput_ops_s on process_large"),
    ("dist.echo_MB_s", "MB/s", "higher", "throughput_ops_s on process_large"),
    ("dist.spawn_s", "s", "lower", "setup_s on process_large, serve_large_process"),
    ("dist.respawns", "count", "lower", "must be 0"),
    ("cluster.frame_rtt_64B_us", "us", "lower", "latency_p50_ms on cluster_small"),
    ("cluster.frame_rtt_1MiB_ms", "ms", "lower", "none today (no large-frame cluster workload)"),
    ("cluster.rtt_64B_us", "us", "lower", "latency_p50_ms, throughput_ops_s on cluster_small"),
    ("cluster.rtt_1MiB_ms", "ms", "lower", "none today"),
    ("cluster.connect_s", "s", "lower", "setup_s on cluster_small"),
    ("cluster.reconnects", "count", "lower", "must be 0"),
    ("obs.ring_overhead_ratio", "ratio", "lower", "nothing while off; throughput_ops_s on dispatch_noop if left on"),
    ("obs.null_overhead_ratio", "ratio", "lower", "same"),
    ("obs.events_per_region", "count", "lower", "obs.ring_overhead_ratio"),
    ("obs.dropped_events", "count", "lower", "trace completeness"),
    ("policy.burst200_batch1_ms", "ms", "lower", "base of the batch policy"),
    ("policy.burst200_batch16_ms", "ms", "lower", "throughput_ops_s on dispatch_noop if batching becomes default"),
    ("policy.steal_off_ms", "ms", "lower", "base of the steal policy"),
    ("policy.steal_on_ms", "ms", "lower", "latency_p90_ms on gui_await if stealing becomes default"),
    ("compiler.transform_ms", "ms", "lower", "setup_s only"),
    ("openmp.parallel2_forkjoin_us", "us", "lower", "none today; base for a later fork-join workload"),
    ("load.late_p99_ms", "ms", "lower", "qualifies latency: how late arrivals were issued"),
    ("load.latency_p90_ms", "ms", "lower", "user-felt tail of the open load; not gated: its spread over ten seeds exceeded its bound"),
    ("load.latency_p99_ms", "ms", "lower", "reported, not gated: follows host stalls"),
    ("load.samples", "count", "higher", "open-phase samples behind the latency numbers"),
    ("bench.span_overhead_ratio", "ratio", "higher", "traced / untraced throughput_ops_s: 1 minus the cost of the spans themselves"),
]

# The README quickstart function, the compiler's reference input.
_QUICKSTART = '''
def button_on_click(panel, info):
    panel.show_msg("Started EDT handling")
    #omp target virtual(worker) await
    if True:
        result = download_and_compute(info)
        #omp target virtual(edt) nowait
        panel.show_msg("half done")
    panel.show_msg(f"Finished: {result}")
'''


def _noop() -> None:
    return None


def _nap() -> None:
    time.sleep(0.001)


class _Budget:
    """Seconds one probe may spend; scales with ``--seconds``."""

    def __init__(self, seconds: float) -> None:
        self.per_probe = 0.03 * seconds
        self.phase = 0.05 * seconds

    def p50_ns(self, fn: Callable[[], Any], *, batch: int = 1,
               after: Callable[[], Any] | None = None) -> float:
        """Median time of one call of *fn* (``batch`` calls per clock read for
        sub-microsecond bodies; *after* runs untimed after each sample)."""
        for _ in range(2):
            fn()
            if after is not None:
                after()
        samples = []
        want = max(5, CALLS // batch)
        stop = time.perf_counter() + self.per_probe
        while len(samples) < want and (len(samples) < 5 or time.perf_counter() < stop):
            t0 = time.perf_counter_ns()
            for _ in range(batch):
                fn()
            samples.append((time.perf_counter_ns() - t0) / batch)
            if after is not None:
                after()
        return percentile(samples, 50.0)


def _kernels(b: _Budget) -> dict[str, float]:
    data = bytes(range(256)) * 256
    return {
        "kernels.encrypt_64B_us": b.p50_ns(lambda: encrypt_payload(data[:64])) / 1e3,
        "kernels.encrypt_4KiB_us": b.p50_ns(lambda: encrypt_payload(data[:4096])) / 1e3,
        "kernels.encrypt_64KiB_ms": b.p50_ns(lambda: encrypt_payload(data)) / 1e6,
    }


def _core_eventloop(b: _Budget) -> dict[str, float]:
    rt = PjRuntime()
    try:
        rt.create_worker("w", NPROC)
        invoke = rt.invoke_target_block
        handles: list[TargetRegion] = []

        def join() -> None:
            for h in handles:
                h.result(OP_TIMEOUT)
            handles.clear()

        def tagged() -> None:
            for k in range(4):
                invoke("w", TargetRegion(echo, k), "name_as", tag="probe")
            rt.wait_tag("probe", timeout=OP_TIMEOUT)

        out = {
            "core.region_create_us": b.p50_ns(lambda: TargetRegion(echo, 1), batch=100) / 1e3,
            "core.nowait_submit_us": b.p50_ns(
                lambda: handles.append(invoke("w", TargetRegion(echo, 1), "nowait")),
                batch=50, after=join) / 1e3,
            "core.default_rtt_us": b.p50_ns(
                lambda: invoke("w", TargetRegion(echo, 1), timeout=OP_TIMEOUT)) / 1e3,
            "core.wait_tag4_us": b.p50_ns(tagged) / 1e3,
        }
        # Lone round trips under the ring recorder: the existing obs stamps
        # split one dispatch into queue wait and execution.
        obs.enable()
        try:
            for _ in range(CALLS):
                invoke("w", TargetRegion(echo, 1), timeout=OP_TIMEOUT)
        finally:
            obs.disable()
        stamped = obs.compute_metrics(obs.session().events()).overall
        obs.session().clear()
        out["core.queue_wait_us"] = stamped.queue_wait.p50 * 1e3
        out["core.exec_us"] = stamped.execution.p50 * 1e3
        loop = EventLoop(rt, "edt")
        # await is only a logical barrier when issued by a member of a
        # target, so the timing loop itself runs on the EDT.
        out["core.await_rtt_us"] = invoke("edt", lambda: b.p50_ns(
            lambda: invoke("w", TargetRegion(echo, 1), "await", timeout=OP_TIMEOUT))).result() / 1e3
        records = []
        out["eventloop.fire_us"] = b.p50_ns(
            lambda: records.append(loop.fire("tick")),
            after=lambda: loop.wait_all_finished(OP_TIMEOUT) and loop.clear_records()) / 1e3
        out["eventloop.dispatch_latency_us"] = percentile(
            [r.dispatch_latency for r in records], 50.0) * 1e6
        out["eventloop.invoke_and_wait_us"] = b.p50_ns(
            lambda: loop.invoke_and_wait(_noop, OP_TIMEOUT)) / 1e3
        return out
    finally:
        rt.shutdown(wait=False)


def _edt_probe(b: _Budget, seed: int) -> dict[str, float]:
    """gui_await's open load for a short phase, on every traced run, so EDT
    responsiveness is reported whichever workload the run is for."""
    gui = GuiAwait(seed)
    try:
        gui.setup()
        rng = random.Random(seed)
        clicks = loadgen.poisson_offsets(rng, gui.rate, 2 * b.phase)
        ticks = loadgen.poisson_offsets(rng, gui.probe_rate, 2 * b.phase)
        load = threading.Thread(target=loadgen.run_open, args=(gui.op, clicks, NPROC))
        load.start()
        _, samples = loadgen.run_open(gui.probe_op, ticks, 1)
        load.join()
        return {"eventloop.edt_probe_p90_ms": percentile(
            [(s.end - s.due) * 1e3 for s in samples if s.ok], 90.0)}
    finally:
        gui.teardown(wait=False)


def _adapters(b: _Budget) -> dict[str, float]:
    rt = PjRuntime()
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, name="probe-asyncio")
    thread.start()
    try:
        rt.create_worker("w", NPROC)
        register_asyncio_edt(rt, "aedt", loop).wait_bound()

        async def one() -> None:
            await as_future(rt.invoke_target_block("w", TargetRegion(echo, 1), "nowait"))

        async def future_rtt() -> float:
            samples = []
            stop = time.perf_counter() + b.per_probe
            while len(samples) < CALLS and (len(samples) < 5 or time.perf_counter() < stop):
                t0 = time.perf_counter_ns()
                await one()
                samples.append(time.perf_counter_ns() - t0)
            return percentile(samples, 50.0)

        return {
            "adapters.as_future_rtt_us":
                asyncio.run_coroutine_threadsafe(future_rtt(), loop).result(60.0) / 1e3,
            "adapters.edt_post_rtt_us": b.p50_ns(lambda: rt.invoke_target_block(
                "aedt", TargetRegion(echo, 1), timeout=OP_TIMEOUT)) / 1e3,
        }
    finally:
        rt.shutdown(wait=False)
        loop.call_soon_threadsafe(loop.stop)
        thread.join()
        loop.close()


def _serve(b: _Budget, parts: dict[str, float]) -> dict[str, float]:
    server = ServerProcess("thread", NPROC)
    try:
        client = HttpClient(server.host, server.port)
        try:
            payload = bytes(range(64))
            want = encrypt_payload(payload)

            def encrypt() -> None:
                if client.request("POST", "/encrypt", payload) != (200, want):
                    raise ValueError("probe /encrypt answered wrongly")

            def healthz() -> None:
                if client.request("GET", "/healthz") != (200, b"ok"):
                    raise ValueError("probe /healthz answered wrongly")

            health_us = b.p50_ns(healthz) / 1e3
            encrypt_us = b.p50_ns(encrypt) / 1e3
        finally:
            client.close()
    finally:
        server.close()
    # By construction healthz + kernel + as_future + unattributed == encrypt.
    return {
        "serve.healthz_rtt_us": health_us,
        "serve.encrypt_rtt_us": encrypt_us,
        "serve.unattributed_us": encrypt_us - health_us - parts["kernels.encrypt_64B_us"]
        - parts["adapters.as_future_rtt_us"],
    }


def _echo_rtt(b: _Budget, rt: PjRuntime, target: str, data: bytes) -> float:
    crc = zlib.crc32(data)

    def once() -> None:
        got = rt.invoke_target_block(target, TargetRegion(bytes, data), timeout=OP_TIMEOUT).result()
        if zlib.crc32(got) != crc:
            raise ValueError(f"probe echo on {target} returned other bytes")

    return b.p50_ns(once)


def _dist(b: _Budget) -> dict[str, float]:
    small, large = bytes(64), bytes(range(256)) * 4096
    blob = wire.dumps(large)
    out = {
        "dist.wire_dumps_64B_us": b.p50_ns(lambda: wire.dumps(small)) / 1e3,
        "dist.wire_dumps_1MiB_us": b.p50_ns(lambda: wire.dumps(large)) / 1e3,
        "dist.wire_loads_1MiB_us": b.p50_ns(lambda: wire.loads(blob)) / 1e3,
    }
    rt = PjRuntime()
    try:
        t0 = time.perf_counter()
        target = rt.create_process_worker("p", 1)
        rt.invoke_target_block("p", TargetRegion(bytes, small), timeout=60.0)
        out["dist.spawn_s"] = time.perf_counter() - t0
        confine()
        out["dist.rtt_64B_us"] = _echo_rtt(b, rt, "p", small) / 1e3
        rtt_ns = _echo_rtt(b, rt, "p", large)
        out["dist.rtt_1MiB_ms"] = rtt_ns / 1e6
        out["dist.echo_MB_s"] = 2 * len(large) / 1e6 / (rtt_ns / 1e9)
        out["dist.respawns"] = target.restart_count
        return out
    finally:
        rt.shutdown(wait=False)
        reap_children()


def _frame_echo(listener: Any) -> None:
    end = listener.accept(timeout=OP_TIMEOUT)
    if end is None:
        return
    try:
        while True:
            end.send(end.recv())
    except (EOFError, OSError):
        end.close()


def _cluster(b: _Budget) -> dict[str, float]:
    small, large = bytes(64), bytes(range(256)) * 4096
    listener = listen()
    server = threading.Thread(target=_frame_echo, args=(listener,), name="probe-frame-echo")
    server.start()
    try:
        end = connect(listener.host, listener.port)
        try:
            def frame(data: bytes) -> None:
                end.send(data)
                if end.recv() != data:
                    raise ValueError("frame echo returned other bytes")

            out = {
                "cluster.frame_rtt_64B_us": b.p50_ns(lambda: frame(small)) / 1e3,
                "cluster.frame_rtt_1MiB_ms": b.p50_ns(lambda: frame(large)) / 1e6,
            }
        finally:
            end.close()
    finally:
        server.join()
        listener.close()
    agent = spawn_agent()
    rt = PjRuntime()
    try:
        t0 = time.perf_counter()
        # heartbeat_interval: see the defect note in README.md.
        target = rt.create_cluster("c", [agent.endpoint], heartbeat_interval=60.0)
        rt.invoke_target_block("c", TargetRegion(bytes, small), timeout=60.0)
        out["cluster.connect_s"] = time.perf_counter() - t0
        out["cluster.rtt_64B_us"] = _echo_rtt(b, rt, "c", small) / 1e3
        out["cluster.rtt_1MiB_ms"] = _echo_rtt(b, rt, "c", large) / 1e6
        out["cluster.reconnects"] = target.restart_count
        return out
    finally:
        rt.shutdown(wait=False)
        agent.close()


def _obs(b: _Budget) -> dict[str, float]:
    """dispatch_noop's closed phase with telemetry off, null and ring:
    throughput off / on (base = off), and what the ring recorded."""
    def closed_ops_s() -> float:
        noop = DispatchNoop(0)
        try:
            noop.setup()
            noop.closed_op(0, 0)
            t0, samples = loadgen.run_closed(noop.closed_op, b.phase, NPROC)
            if not all(s.ok for s in samples):
                raise RuntimeError("dispatch_noop burst failed under telemetry")
            return loadgen.closed_throughput(samples, t0, b.phase, noop.weight)
        finally:
            noop.teardown(wait=False)

    obs.disable()
    try:
        off = closed_ops_s()
        obs.enable(null=True)
        null = closed_ops_s()
        obs.disable()
        obs.session().clear()
        obs.enable()
        ring = closed_ops_s()
        obs.disable()
        dropped = obs.session().stats()["dropped"]
        events = obs.session().events()
        metrics = obs.compute_metrics(events)
    finally:
        obs.disable()
        obs.session().clear()
    return {
        "obs.null_overhead_ratio": off / null,
        "obs.ring_overhead_ratio": off / ring,
        "obs.events_per_region": len(events) / max(1, metrics.kind_counts.get("REGION_SUBMIT", 0)),
        "obs.dropped_events": dropped,
    }


def _policy(b: _Budget) -> dict[str, float]:
    def burst_ms(body: Callable[[], None], n: int, *workers: dict[str, Any]) -> float:
        rt = PjRuntime()
        try:
            for k, kwargs in enumerate(workers):
                rt.create_worker(f"w{k}", 1, **kwargs)

            def burst() -> None:
                for h in [rt.invoke_target_block("w0", body, "nowait") for _ in range(n)]:
                    h.result(OP_TIMEOUT)

            return b.p50_ns(burst) / 1e6
        finally:
            rt.shutdown(wait=False)

    return {
        "policy.burst200_batch1_ms": burst_ms(_noop, 200, {"batch_max": 1}),
        "policy.burst200_batch16_ms": burst_ms(_noop, 200, {"batch_max": 16}),
        # 40 x 1 ms sleeps posted to one lane while an idle sibling looks on.
        "policy.steal_off_ms": burst_ms(_nap, 40, {"steal": False}, {"steal": False}),
        "policy.steal_on_ms": burst_ms(_nap, 40, {"steal": True}, {"steal": True}),
    }


def _compiler_openmp(b: _Budget) -> dict[str, float]:
    return {
        "compiler.transform_ms": b.p50_ns(lambda: compile_source(_QUICKSTART)) / 1e6,
        "openmp.parallel2_forkjoin_us": b.p50_ns(lambda: parallel(_noop, num_threads=2)) / 1e3,
    }


def probe_all(seconds: float, seed: int) -> dict[str, float]:
    """Every probed per-layer metric (the workload's pass adds the counts)."""
    b = _Budget(seconds)
    out: dict[str, float] = {}
    for group in (_kernels, _core_eventloop, _adapters, _dist, _cluster, _obs,
                  _policy, _compiler_openmp):
        out.update(group(b))
    out.update(_edt_probe(b, seed))
    out.update(_serve(b, out))
    return out
