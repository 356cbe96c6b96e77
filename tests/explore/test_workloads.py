"""The workload models: every model quiesces cleanly under exploration,
and the sensor machinery would catch a dispatch that touches a corpse."""

from __future__ import annotations

import pytest

from repro.explore import WORKLOADS, SensorRegion, explore
from repro.explore.explorer import execute
from repro.explore.schedule import ScheduleStep
from repro.explore.workloads import CallerRunsCancel


class TestModels:
    def test_registry_names_match_classes(self):
        for name, cls in WORKLOADS.items():
            assert cls.name == name
            assert cls.description

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_every_model_explores_clean(self, name):
        # Bounded walk per model: enough to cross every seam kind (post,
        # dispatch, cancel, shutdown, vsleep) without exhausting the big
        # trees in a unit test.  The runtime under its current fixes must
        # survive every one of these interleavings.
        result = explore(name, preemption_bound=1, max_schedules=400)
        assert result.ok, [
            v.render() for v in result.violating.violations
        ] if result.violating else []
        assert result.schedules > 0

    def test_caller_runs_cancel_model_is_exhaustible(self):
        # The satellite-bug model: after the targets.py fix the *entire*
        # schedule tree is clean — including the orders where the cancel
        # lands inside the caller_runs handoff window.
        result = explore("caller-runs-cancel", max_schedules=3000)
        assert result.exhausted
        assert result.ok

    def test_barrier_wakeup_model_is_exhaustible(self):
        result = explore("barrier-wakeup-vs-sibling-lane")
        assert result.exhausted
        assert result.ok

    def test_the_schedule_that_ate_the_wakeup_cannot_be_followed(self):
        # explore-barrier-wakeup-vs-sibling-lane-ceca75496731: while a
        # wakeup was a queue item, step 6 let a sibling lane dequeue the one
        # owed to the member, which then slept out its poll (reported as a
        # deadlock).  Nothing is queued now, so that step is not on offer.
        eaten = tuple(ScheduleStep(*step) for step in [
            ("complete", "spawn", None), ("complete", "pump", "other"),
            ("lane-a", "spawn", None), ("lane-b", "spawn", None),
            ("member", "spawn", None), ("complete", "dispatch", "other"),
            ("lane-a", "loop", "w"),
        ])
        rec = execute(WORKLOADS["barrier-wakeup-vs-sibling-lane"], eaten)
        assert rec.diverged is not None
        assert "step 6" in rec.diverged and "(enabled: member)" in rec.diverged
        assert not rec.violations


class TestSensorRegion:
    def test_counts_runs_after_terminal(self):
        region = SensorRegion(lambda: "x", name="r1")
        region.cancel()
        assert region.late_runs == 0
        region.run()  # the PENDING guard makes this a no-op body-wise...
        assert region.late_runs == 1  # ...but the sensor still saw the call

    def test_workload_verify_reports_late_runs(self):
        wl = CallerRunsCancel()

        class _Ctx:
            def actor(self, label, fn):
                pass

            def checkpoint(self, *a, **k):
                return True

            def vsleep(self, d):
                pass

        wl.setup(_Ctx())
        wl.r1.cancel()
        wl.r1.run()
        violations = wl.verify([])
        assert any(v.invariant == "exec-after-cancel" for v in violations)
        wl.quiesce()
