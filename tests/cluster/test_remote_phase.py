"""The cluster row of ``repro check``'s remote-lane phase, under this suite's
agent-process leak guard: one of two loopback-TCP agents is terminated
mid-region, every handle still ends terminal, post-kill work fails over to
the surviving agent, and the merged trace verifies clean."""

from __future__ import annotations

from repro.check import PROFILES, run_remote_phase


def test_agent_kill_verifies_clean():
    outcome = run_remote_phase(PROFILES["smoke"], seed=1234, backend="cluster")
    assert outcome.label == "cluster"
    assert outcome.ok, [v.render() for v in outcome.violations]
