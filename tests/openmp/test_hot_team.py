"""Hot teams: a region's members and its tasks are target regions on a
leased WorkerTarget, never threads or a pool of their own."""

import sys
import threading

import pytest

import repro.openmp as omp
from repro import obs
from repro.check.invariants import verify_events
from repro.core import PjRuntime
from repro.obs.events import EventKind


def _team_target():
    return omp.current_context().team.target


@pytest.fixture()
def rt():
    runtime = PjRuntime()
    runtime.create_worker("w", 2)
    yield runtime
    runtime.shutdown(wait=False)


class TestTrace:
    def test_tasks_land_on_the_team_target_and_verify(self):
        obs.disable()
        obs.session().clear()
        session = obs.enable()
        try:
            def body(tid):
                handle = omp.task(lambda: tid * tid)
                omp.taskwait()
                return _team_target().name, handle

            results = omp.parallel(body, num_threads=3)
            obs.disable()
            events = session.events()
            assert verify_events(events) == []
            (team_name,) = {name for name, _ in results}
            for _, handle in results:
                assert handle.deferred and handle.done
                kinds = {
                    e.kind for e in events
                    if e.region == handle.region.seq and e.target == team_name
                }
                assert {
                    EventKind.ENQUEUE, EventKind.DEQUEUE,
                    EventKind.EXEC_BEGIN, EventKind.EXEC_END,
                } <= kinds
        finally:
            obs.disable()
            obs.session().clear()


class TestNoPumpRunsAMember:
    def test_many_regions_of_tasks_barriers_and_awaits(self, rt):
        """Every member spawns, joins, meets the others and awaits another
        target; a pump that ran a queued member nested would deadlock the
        barrier or put two members on one thread.  A short switch interval
        interleaves the members more finely than the default."""
        def body(tid):
            handle = omp.task(lambda: tid)
            omp.taskwait()
            omp.barrier()
            rt.invoke_target_block("w", lambda: None, "await")
            return threading.get_ident(), handle.result(timeout=5)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(200):
                results = omp.parallel(body, num_threads=4)
                assert [r for _, r in results] == [0, 1, 2, 3]
                assert len({ident for ident, _ in results}) == 4
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("first", ["barrier", "await"])
    def test_a_pump_first_thing_meets_no_member(self, rt, first):
        def body(tid):
            if first == "barrier":
                omp.barrier()
            else:  # a lane's await pumps the team's queue
                rt.invoke_target_block("w", lambda: None, "await")
            omp.barrier()
            return threading.get_ident()

        for _ in range(50):
            assert len(set(omp.parallel(body, num_threads=4))) == 4


class TestLeasing:
    def test_consecutive_regions_reuse_one_team(self):
        def body(tid):
            return _team_target(), threading.current_thread()

        first = omp.parallel(body, num_threads=3)
        second = omp.parallel(body, num_threads=3)
        assert first[0][0] is second[0][0]
        assert {t for _, t in first[1:]} <= set(first[0][0]._threads)
        assert {t for _, t in second[1:]} <= set(first[0][0]._threads)

    def test_nested_region_leases_another_team(self):
        seen = {}

        def inner(tid):
            seen[tid] = _team_target()

        def outer(tid):
            if tid == 1:
                omp.parallel(inner, num_threads=3)
            return _team_target()

        outer_target = omp.parallel(outer, num_threads=3)[0]
        assert seen[0] is seen[1] is not outer_target
        assert not set(seen[0]._threads) & set(outer_target._threads)

    def test_concurrent_regions_lease_different_teams(self):
        both = threading.Barrier(2)
        targets = []

        def body(tid):
            if tid == 0:
                both.wait(5)
                targets.append(_team_target())

        threads = [
            threading.Thread(target=omp.parallel, args=(body,), kwargs={"num_threads": 2})
            for _ in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert len(targets) == 2 and targets[0] is not targets[1]

    def test_region_leaves_no_task_and_no_master_membership(self):
        def body(tid):
            omp.task(lambda: None)
            return _team_target()

        target = omp.parallel(body, num_threads=2)[0]
        assert target.work_count() == 0
        assert not target.contains()


class TestFailures:
    def test_next_region_after_an_aborted_barrier_runs_cleanly(self):
        def failing(tid):
            if tid == 1:
                raise ValueError("early death")
            omp.barrier()

        with pytest.raises(omp.ParallelRegionError) as ei:
            omp.parallel(failing, num_threads=3)
        assert 1 in [tid for tid, _ in ei.value.failures]

        def clean(tid):
            handle = omp.task(lambda: tid + 1)
            omp.barrier()
            omp.taskwait()
            return handle.result(timeout=5)

        assert omp.parallel(clean, num_threads=3) == [1, 2, 3]
