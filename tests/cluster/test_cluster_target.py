"""ClusterTarget over real TCP loopback: dispatch, faults, traces, tags."""

from __future__ import annotations

import threading
import time

import pytest

from repro import obs
from repro.core import PjRuntime, virtual_target_create_cluster
from repro.cluster import ClusterTarget
from repro.cluster.target import _ClusterSlot
from repro.cluster.transport import MAX_FRAME_BYTES
from repro.core.errors import (
    ProtocolVersionError,
    RegionFailedError,
    RuntimeStateError,
    SerializationError,
    TargetShutdownError,
    WorkerCrashedError,
)
from repro.core.region import RegionState, TargetRegion
from repro.dist import wire

from tests.dist import bodies


def _wait_until(predicate, timeout=15.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestDispatch:
    def test_region_completes_over_two_real_endpoints(self, cluster_rt):
        region = cluster_rt.invoke_target_block(
            "cw", TargetRegion(bodies.square, 12), "default"
        )
        assert region.result() == 144

    def test_work_spreads_across_both_agents(self, cluster_rt, two_agents):
        a, b = two_agents
        regions = [
            cluster_rt.invoke_target_block(
                "cw", TargetRegion(bodies.worker_pid), "nowait"
            )
            for _ in range(8)
        ]
        pids = {r.result(timeout=30.0) for r in regions}
        assert pids <= {a.pid, b.pid}
        target = cluster_rt.get_target("cw")
        assert set(target.worker_pids) - {None} <= {a.pid, b.pid}

    def test_failing_body_raises_structured_remote_error(self, cluster_rt):
        with pytest.raises(RegionFailedError) as exc_info:
            cluster_rt.invoke_target_block(
                "cw", TargetRegion(bodies.boom, "kapow")
            )
        assert isinstance(exc_info.value.__cause__, ValueError)

    def test_describe_names_the_shard_set(self, cluster_rt):
        text = cluster_rt.get_target("cw").describe()
        assert "kind=cluster" in text
        assert "endpoints=" in text and "shards=1" in text

    def test_pump_and_drain_are_refused(self, cluster_rt):
        target = cluster_rt.get_target("cw")
        with pytest.raises(RuntimeStateError):
            target.process_one()
        with pytest.raises(RuntimeStateError):
            target.drain()


class TestFaults:
    def test_agent_killed_mid_region_raises_worker_crashed(self, two_agents, monkeypatch):
        a, b = two_agents
        # One endpoint, no reconnects: the kill verdict must be crisp.
        monkeypatch.setattr(ClusterTarget, "max_restarts", 0)
        rt = PjRuntime()
        try:
            rt.create_cluster("frail", [a.endpoint])
            region = TargetRegion(bodies.sleepy, 30.0, name="doomed")
            rt.invoke_target_block("frail", region, "nowait")
            _wait_until(lambda: region.state is RegionState.RUNNING)
            start = time.monotonic()
            a.terminate()
            with pytest.raises(RegionFailedError) as exc_info:
                region.result(timeout=30.0)
            elapsed = time.monotonic() - start
            cause = exc_info.value.__cause__
            assert isinstance(cause, WorkerCrashedError)
            assert cause.target_name == "frail"
            assert elapsed < 15.0, f"crash detection took {elapsed:.1f}s"
        finally:
            rt.shutdown(wait=False)

    def test_shard_failover_to_surviving_endpoint(self, cluster_rt, two_agents):
        a, b = two_agents
        target = cluster_rt.get_target("cw")
        # Warm both lanes up so each agent holds one.
        warm = [
            cluster_rt.invoke_target_block(
                "cw", TargetRegion(bodies.sleepy, 0.2), "nowait"
            )
            for _ in range(2)
        ]
        # Both handshakes done: a lane killed while still coming up was
        # never a worker, and cannot be counted as a crashed one.
        assert _wait_until(lambda: target.connected_count == 2)
        a.terminate()
        for r in warm:
            r.wait(30.0)  # terminal — completed or crashed, never hung
        # Post-kill work must still complete on the surviving agent.
        after = [
            cluster_rt.invoke_target_block(
                "cw", TargetRegion(bodies.worker_pid), "nowait"
            )
            for _ in range(4)
        ]
        pids = set()
        for r in after:
            assert r.wait(30.0), "post-kill region hung"
            if r.exception is None:
                pids.add(r.result())
        assert pids == {b.pid}, "failover did not route to the survivor"
        assert target.stats["worker_crashes"] >= 1

    def test_all_endpoints_dead_fails_backlog_and_declares_death(self, agent, monkeypatch):
        monkeypatch.setattr(ClusterTarget, "max_restarts", 0)
        rt = PjRuntime()
        try:
            rt.create_cluster("doom", [agent.endpoint])
            # Establish the lane, then kill the only agent.
            rt.invoke_target_block("doom", TargetRegion(bodies.square, 2))
            agent.terminate()
            agent.wait()
            target = rt.get_target("doom")
            region = TargetRegion(bodies.square, 3, name="orphan")
            try:
                rt.invoke_target_block("doom", region, "nowait")
            except (RegionFailedError, TargetShutdownError):
                return  # refused outright: also errors-not-hangs
            assert region.wait(30.0), "backlog region hung on a dead cluster"
            assert region.exception is not None
            assert _wait_until(lambda: not target.alive)
        finally:
            rt.shutdown(wait=False)

    def test_an_oversize_payload_fails_its_region_not_the_lane(self, agent):
        # Either direction: a message that cannot fit a frame is the
        # region's SerializationError (naming the size and the limit),
        # raised before a byte is written.  It used to tear the connection
        # — a "crash" per attempt, four of which disabled the lane.
        rt = PjRuntime()
        try:
            target = rt.create_cluster("g", [agent.endpoint], shards=1)
            too_big = MAX_FRAME_BYTES + (1 << 20)
            for region in (
                TargetRegion(bytes, bytes(too_big)),  # the argument
                TargetRegion(bytes, too_big),         # the result
            ):
                with pytest.raises(RegionFailedError) as exc_info:
                    rt.invoke_target_block("g", region, timeout=60.0)
                cause = exc_info.value.__cause__
                assert isinstance(cause, SerializationError)
                assert str(too_big)[:3] in str(cause)
                assert f"MAX_FRAME_BYTES={MAX_FRAME_BYTES}" in str(cause)
                assert target.stats["worker_crashes"] == target.restart_count == 0
            ok = rt.invoke_target_block(
                "g", TargetRegion(bytes, bytes(1 << 20)), timeout=60.0
            )
            assert ok.result() == bytes(1 << 20)
            assert target.stats["worker_crashes"] == target.restart_count == 0
        finally:
            rt.shutdown(wait=False)

    def test_cooperative_cancel_crosses_the_wire(self, cluster_rt):
        region = TargetRegion(bodies.cooperative_loop, 30.0, name="coop")
        cluster_rt.invoke_target_block("cw", region, "nowait")
        running = lambda: region.state is RegionState.RUNNING
        assert _wait_until(running), "region never started remotely"
        region.request_cancel()
        assert region.wait(15.0), "cancelled region hung"
        # The remote body polls its token and returns early — the cancel
        # message reached the agent's ctrl loop and flipped the right token.
        assert region.result() == "cancelled" or region.exception is not None


class TestHeartbeats:
    """A healthy lane answers pings, so its idle check must leave it alone."""

    def test_idle_lanes_are_not_reconnected(self, agent):
        rt = PjRuntime()
        try:
            target = rt.create_cluster(
                "idle", [agent.endpoint], shards=2, heartbeat_interval=0.1
            )
            assert _wait_until(lambda: target.connected_count == 2)
            time.sleep(1.0)  # three miss budgets' worth of sweeps
            assert target.restart_count == 0
            assert target.stats["worker_crashes"] == 0
            assert target.connected_count == 2
        finally:
            rt.shutdown(wait=False)

    def test_busy_lanes_are_not_reconnected(self, cluster_rt):
        # The fixture's heartbeat_interval=0.25 gives a 0.75 s miss budget;
        # dispatch back to back for well over that.
        target = cluster_rt.get_target("cw")
        deadline = time.monotonic() + 2.0
        n = 0
        while time.monotonic() < deadline:
            assert cluster_rt.invoke_target_block(
                "cw", TargetRegion(bodies.square, n)
            ).result() == n * n
            n += 1
        assert target.restart_count == 0
        assert target.stats["worker_crashes"] == 0


@pytest.fixture()
def traced():
    """Tracing switched on.  Request it *before* ``cluster_rt``: the lanes
    start connecting the moment the target is built, and a ``WORKER_CONNECT``
    emitted before tracing is on is not in the trace."""
    session = obs.enable()
    try:
        yield session
    finally:
        obs.disable()


class TestTraceMerge:
    def test_remote_events_merge_with_connect_instants(self, traced, cluster_rt):
        cluster_rt.invoke_target_block("cw", TargetRegion(bodies.sleepy, 0.01))
        events = list(traced.events())
        kinds = {e.kind.name for e in events}
        assert "WORKER_CONNECT" in kinds
        execs = [e for e in events if "[w" in (e.target or "")
                 and e.kind.name in ("EXEC_BEGIN", "EXEC_END")]
        assert len(execs) == 2, f"remote exec events missing: {kinds}"
        assert "pid" in execs[0].thread  # "<endpoint> pid <N>" track label
        # Clock handshake applied: remote timestamps sort after dispatch.
        dequeues = [e for e in events if e.kind.name == "DEQUEUE"]
        assert min(e.ts for e in execs) >= max(e.ts for e in dequeues)

    def test_chrome_export_has_worker_connect_instant(self, traced, cluster_rt):
        cluster_rt.invoke_target_block("cw", TargetRegion(bodies.sleepy, 0.01))
        doc = obs.to_chrome_trace(traced.events())
        instants = [ev for ev in doc["traceEvents"]
                    if ev.get("ph") == "i" and "worker-connect" in ev.get("name", "")]
        assert instants, "worker-connect instant missing from Chrome export"


class TestTags:
    def test_wait_tag_joins_cross_host_group(self, cluster_rt):
        for i in range(4):
            cluster_rt.invoke_target_block(
                "cw", TargetRegion(bodies.sleepy, 0.05, value=i), "name_as",
                tag="batch",
            )
        cluster_rt.wait_tag("batch", timeout=30.0)


class TestConnectedCount:
    def test_a_stalled_handshake_is_not_a_connection(self, monkeypatch):
        """An endpoint that accepts and says hello but never answers the
        clock probe: both sockets exist, yet no lane is connected."""
        from repro.cluster import transport

        monkeypatch.setattr(ClusterTarget, "max_restarts", 0)
        monkeypatch.setattr(_ClusterSlot, "open_timeout", 2.0)

        listener = transport.listen()
        accepted = []
        stop = threading.Event()

        def stall():
            while not stop.is_set():
                chan = listener.accept(timeout=0.1)
                if chan is not None:
                    transport.expect_hello(chan, timeout=10.0)
                    transport.send_hello(chan, "agent")
                    accepted.append(chan)

        thread = threading.Thread(target=stall, daemon=True)
        thread.start()
        rt = PjRuntime()
        try:
            target = rt.create_cluster("stalled", [f"127.0.0.1:{listener.port}"])
            slot = target._slots[0]
            assert _wait_until(lambda: len(accepted) == 2 and not slot.torn())
            assert target.connected_count == 0
            assert "connected=0/1" in target.describe()
            # The probe times out, the lane is torn down: still not connected.
            assert _wait_until(slot.torn)
            assert target.connected_count == 0
        finally:
            rt.shutdown(wait=False)
            stop.set()
            thread.join(timeout=10.0)
            listener.close()
            for chan in accepted:
                chan.close()
        assert not thread.is_alive()


class TestVersionGate:
    def test_mismatched_client_is_refused_structurally(self, agent, monkeypatch):
        # A client from a "different checkout": its hello announces a
        # protocol the agent does not speak.  Every connect attempt dies in
        # the handshake with ProtocolVersionError, the lane burns its budget
        # and the region fails — no hang, no misparse.
        monkeypatch.setattr(wire, "PROTOCOL_VERSION", 999)
        monkeypatch.setattr(ClusterTarget, "max_restarts", 0)
        rt = PjRuntime()
        try:
            rt.create_cluster("stale", [agent.endpoint])
            region = TargetRegion(bodies.square, 2, name="refused")
            try:
                rt.invoke_target_block("stale", region, "nowait")
            except (RegionFailedError, TargetShutdownError):
                return
            assert region.wait(30.0), "mismatched-version dispatch hung"
            assert region.exception is not None
        finally:
            rt.shutdown(wait=False)

    def test_expect_hello_raises_against_mismatched_agent(self, agent, monkeypatch):
        from repro.cluster.transport import connect, expect_hello, parse_endpoint, send_hello

        monkeypatch.setattr(wire, "PROTOCOL_VERSION", 999)
        tr = connect(*parse_endpoint(agent.endpoint))
        try:
            send_hello(tr, "task", target_name="stale", slot=0)
            with pytest.raises(ProtocolVersionError) as exc_info:
                expect_hello(tr, peer=agent.endpoint)
            assert exc_info.value.ours == 999
            assert exc_info.value.theirs != 999  # the agent's real version
        finally:
            tr.close()


class TestLifecycle:
    def test_shutdown_leaves_the_agent_running_for_others(self, agent):
        rt = PjRuntime()
        try:
            virtual_target_create_cluster("first", [agent.endpoint], runtime=rt)
            assert rt.invoke_target_block(
                "first", TargetRegion(bodies.square, 3)
            ).result() == 9
            rt.get_target("first").shutdown(wait=True)
            assert agent.alive(), "shutdown must not kill shared agents"
            # The same agent serves a brand-new target afterwards.
            virtual_target_create_cluster("second", [agent.endpoint], runtime=rt)
            assert rt.invoke_target_block(
                "second", TargetRegion(bodies.add, 2, 3)
            ).result() == 5
        finally:
            rt.shutdown(wait=False)

    def test_hard_shutdown_fails_inflight_fast(self, cluster_rt):
        region = TargetRegion(bodies.stubborn_sleep, 30.0, name="stuck")
        cluster_rt.invoke_target_block("cw", region, "nowait")
        target = cluster_rt.get_target("cw")
        assert _wait_until(lambda: region.state is RegionState.RUNNING)
        start = time.monotonic()
        target.shutdown(wait=False)
        assert region.wait(15.0), "in-flight region hung through hard stop"
        assert time.monotonic() - start < 15.0
        assert region.exception is not None

    def test_bad_configuration_is_rejected(self):
        rt = PjRuntime()
        try:
            with pytest.raises(ValueError):
                rt.create_cluster("empty", [])
            with pytest.raises(ValueError):
                rt.create_cluster("neg", ["h:1"], shards=0)
        finally:
            rt.shutdown(wait=False)
