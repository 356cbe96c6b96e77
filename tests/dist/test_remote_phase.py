"""The process row of ``repro check``'s remote-lane phase, under this suite's
child-process and shared-memory leak guards: one worker process is killed
mid-region, every handle still ends terminal, post-kill work completes on a
surviving lane, and the merged trace verifies clean."""

from __future__ import annotations

from repro.check import PROFILES, run_remote_phase


def test_process_lane_kill_verifies_clean():
    outcome = run_remote_phase(PROFILES["smoke"], seed=1234, backend="process")
    assert outcome.label == "dist"
    assert outcome.ok, [v.render() for v in outcome.violations]
