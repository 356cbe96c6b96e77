"""The ``repro check`` serve phase: live HTTP under a worker kill.

Stands up a real process-backend :class:`~repro.serve.server.HttpServer`,
drives a closed-loop burst through it, hard-kills one worker process while
requests are in flight (:func:`repro.check.faults.kill_worker` — the same
fault the remote-lane phase's process row injects), and then checks the
serving-level contract:

* **no hangs** — every issued request produced a response (the whole
  scenario runs under a hard timeout; tripping it is itself a violation);
* **errors, not resets** — a crashed worker surfaces as a 5xx response on a
  healthy connection, never as a dropped transport;
* **clean drain** — after the burst the graceful drain completes inside its
  grace period without downgrading to cancellation;
* **no backlog leaks** — post-shutdown, the CPU target's queue is empty and
  its members are gone (:func:`repro.check.invariants.verify_quiescence`).

Violation messages stay seed-deterministic in the common case (counts, not
timestamps or pids) so a failing ``repro check --serve`` report is
replayable like every other phase.
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING

from ..check.faults import kill_worker
from ..check.invariants import Violation, verify_quiescence
from ..check.report import PhaseOutcome
from .loadgen import run_closed_loop
from .server import HttpServer, ServeConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..check.stress import StressProfile

__all__ = ["run_serve_phase"]

#: Responses a burst overlapping a worker kill may legitimately produce:
#: success, crash fail-over (500), admission rejection (503), deadline (504).
_ACCEPTABLE = {200, 500, 503, 504}

_SCENARIO_TIMEOUT = 90.0


async def _scenario(profile: "StressProfile", seed: int,
                    violations: list[Violation]) -> None:
    cfg = ServeConfig(
        backend="process",
        workers=2,
        queue_capacity=64,
        policy="reject",
        request_timeout=20.0,
        drain_grace=10.0,
        rounds=10,                 # ~tens of ms per request: a kill window
        edt_name="serve-edt",
        cpu_target="serve-cpu",
    )
    n_requests = 40
    server = HttpServer(cfg)
    await server.start()
    target = server.runtime.get_target(cfg.cpu_target)
    try:
        load = asyncio.create_task(run_closed_loop(
            "127.0.0.1", server.port,
            requests=n_requests, concurrency=8, payload_bytes=4096,
        ))
        await asyncio.sleep(0.3)   # let both workers pick up requests
        try:
            kill_worker(target, seed % cfg.workers)
        except Exception:  # noqa: BLE001 - lane already down is acceptable
            pass
        result = await load
        answered = result.requests + result.errors
        if answered != n_requests:
            violations.append(Violation(
                "serve-hang",
                f"{n_requests - answered} of {n_requests} requests never "
                "completed (no response, no error)",
            ))
        if result.errors:
            violations.append(Violation(
                "serve-transport-error",
                f"{result.errors} request(s) died at the transport level; a "
                "worker crash must surface as a 5xx response, not a reset",
            ))
        bad = {s: n for s, n in result.statuses.items() if s not in _ACCEPTABLE}
        if bad:
            violations.append(Violation(
                "serve-bad-status",
                f"unexpected status codes in kill burst: {sorted(bad)}",
            ))
        if not result.statuses.get(200):
            violations.append(Violation(
                "serve-no-success",
                "no request succeeded around the worker kill; fail-over or "
                "respawn is not working",
            ))
    finally:
        await server.stop()
    if server._drain_clean is False:
        violations.append(Violation(
            "serve-unclean-drain",
            "graceful drain missed its grace period and downgraded to cancel",
        ))
    violations.extend(verify_quiescence([target]))


def run_serve_phase(profile: "StressProfile", seed: int) -> PhaseOutcome:
    """Run the live-serving phase; returns its :class:`PhaseOutcome`."""
    violations: list[Violation] = []
    try:
        asyncio.run(
            asyncio.wait_for(_scenario(profile, seed, violations),
                             _SCENARIO_TIMEOUT)
        )
    except asyncio.TimeoutError:
        violations.append(Violation(
            "serve-hang",
            f"serve scenario exceeded its {_SCENARIO_TIMEOUT:.0f}s budget; "
            "something in the request/drain path is stuck",
        ))
    return PhaseOutcome("serve", violations)
