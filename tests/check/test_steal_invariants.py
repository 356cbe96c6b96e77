"""Stolen work resolves exactly once.

ISSUE 9's safety bar for the adaptive policies: under seeded stress with
stealing and dequeue batching forced on, every stolen ``ENQUEUE`` still
resolves exactly once — no double-exec, no exec-after-cancel — and the
``PUMP_STEAL`` attribution names the victim and the thief correctly.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace

from repro import obs
from repro.check import PROFILES, run_iteration, run_policy_phase
from repro.core.runtime import PjRuntime
from repro.obs import EventKind


def _policied(profile, **overrides):
    return replace(PROFILES[profile], steal=True, batch_max=4, **overrides)


def test_stress_iteration_clean_with_steal_and_batching_forced_on():
    prof = _policied("smoke")
    for index in (0, 1):
        outcome = run_iteration(prof, seed=4242, index=index)
        assert outcome.ok, [str(v) for v in outcome.violations]


def test_stress_iteration_clean_with_all_three_policies():
    # Stealing, batching and a rejection policy at once: seed 99's
    # iteration 1 bounds w0's queue (capacity 4, ``block``), so thieves and
    # parked posters work the same queue.
    prof = _policied("smoke")
    outcome = run_iteration(prof, seed=99, index=1)
    assert outcome.ok, [str(v) for v in outcome.violations]


def test_policy_phase_is_clean():
    outcome = run_policy_phase(PROFILES["smoke"], seed=7)
    assert outcome.label == "policy"
    assert outcome.ok, [str(v) for v in outcome.violations]


def test_stolen_enqueue_resolves_exactly_once():
    rt = PjRuntime()
    try:
        obs.enable()
        rt.create_worker("victim", 1, steal=True, batch_max=4)
        rt.create_worker("thief", 1, steal=True, batch_max=4)
        gate = threading.Event()
        rt.get_target("victim").post(gate.wait)
        time.sleep(0.05)

        runs: dict[str, int] = {}
        handles = []
        for k in range(24):
            label = f"steal-op{k:02d}"
            runs[label] = 0

            def body(label=label) -> None:
                runs[label] += 1

            handles.append(rt.invoke_target_block("victim", body, "nowait"))
        time.sleep(0.3)
        gate.set()
        for h in handles:
            assert h.wait(timeout=10.0)

        assert all(count == 1 for count in runs.values()), runs

        events = obs.session().events()
        steals = [
            e for e in events
            if e.kind is EventKind.PUMP_STEAL
            and isinstance(e.arg, dict)
            and e.arg.get("mode") == "steal"
        ]
        assert steals, "wedging the victim's only lane must force steals"
        for e in steals:
            assert e.arg["victim"] == "victim"
            assert e.arg["thief"] == "thief"
        # Lifecycle bookkeeping still balances on the victim target: one
        # DEQUEUE per ENQUEUE even though another pool ran some of them.
        # The posted gate callable is a region too: 24 + 1.
        enq = sum(
            1 for e in events
            if e.kind is EventKind.ENQUEUE and e.target == "victim"
            and e.region is not None
        )
        deq = sum(
            1 for e in events
            if e.kind is EventKind.DEQUEUE and e.target == "victim"
            and e.region is not None
        )
        assert enq == deq == 25
    finally:
        rt.shutdown(wait=True)


def test_cancelled_work_is_never_stolen():
    rt = PjRuntime()
    try:
        rt.create_worker("victim", 1, steal=True)
        rt.create_worker("thief", 1, steal=True)
        gate = threading.Event()
        rt.get_target("victim").post(gate.wait)
        time.sleep(0.05)

        ran = []
        handles = [
            rt.invoke_target_block("victim", (lambda: ran.append(1)), "nowait")
            for _ in range(8)
        ]
        # Cancel while queued, before releasing the victim's lane; a steal
        # that raced in earlier already resolved its region, so cancel is a
        # no-op there — an item must be executed XOR cancelled, never both.
        for h in handles:
            h.request_cancel()
        gate.set()
        for h in handles:
            h.wait(timeout=10.0)
        executed = len(ran)
        cancelled = sum(1 for h in handles if h.state.name == "CANCELLED")
        assert executed + cancelled == 8
    finally:
        rt.shutdown(wait=True)
