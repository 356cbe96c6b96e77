"""Tests for the task construct — the paper's §I foil.

"The effectiveness of OpenMP tasks are confined within an OpenMP parallel
region": orphaned tasks run sequentially; deferred tasks complete at
taskwait and barriers.
"""

import threading
import time

import pytest

import repro.openmp as omp


class TestOrphanedTasks:
    def test_orphaned_task_runs_inline_and_sequentially(self):
        """Paper §I: 'an orphaned task directive will execute sequentially'."""
        order = []
        h = omp.task(lambda: order.append(threading.current_thread()))
        order.append("after")
        assert h.done
        assert not h.deferred
        assert order == [threading.current_thread(), "after"]

    def test_serialised_team_runs_tasks_inline(self):
        def body():
            h = omp.task(lambda: "x")
            return h.deferred

        assert omp.parallel(body, num_threads=1) == [False]

    def test_false_if_clause_undeferred(self):
        def body():
            h = omp.task(lambda: threading.current_thread(), if_clause=False)
            return h.result() is threading.current_thread()

        assert all(omp.parallel(body, num_threads=2))

    def test_taskwait_outside_region_noop(self):
        assert omp.taskwait() == 0

    def test_orphaned_task_result_and_error(self):
        assert omp.task(lambda: 42).result() == 42
        h = omp.task(lambda: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            h.result()


class TestDeferredTasks:
    def test_tasks_deferred_inside_region(self):
        def body():
            def spawn():
                return omp.task(lambda: None).deferred

            deferred = omp.single(spawn)
            omp.taskwait()
            return deferred

        res = omp.parallel(body, num_threads=3)
        assert res == [True, True, True]

    def test_single_plus_taskwait_runs_each_task_once(self):
        results = []
        lock = threading.Lock()

        def body():
            def spawn():
                for i in range(8):
                    omp.task(lambda i=i: (lock.acquire(), results.append(i), lock.release()))

            omp.single(spawn, nowait=True)
            omp.taskwait()

        omp.parallel(body, num_threads=4)
        assert sorted(results) == list(range(8))

    def test_every_member_spawning_multiplies_tasks(self):
        """Without single, the region body runs per thread — a property the
        paper's virtual targets don't have."""
        count = omp.Atomic(0)

        def body():
            omp.task(lambda: count.add(1))
            omp.taskwait()

        omp.parallel(body, num_threads=3)
        assert count.value == 3

    def test_tasks_complete_at_barrier(self):
        done = []

        def body():
            def spawn():
                omp.task(lambda: done.append(1))

            omp.single(spawn, nowait=True)
            omp.barrier()  # OpenMP: all tasks complete at a barrier
            return len(done)

        res = omp.parallel(body, num_threads=2)
        assert all(n == 1 for n in res)

    def test_tasks_complete_at_region_end_via_implied_barrier(self):
        # for_loop's implied barrier also drains tasks
        done = []

        def body():
            omp.task(lambda: done.append(1))
            omp.for_loop(4, lambda i: None)
            return len(done)

        res = omp.parallel(body, num_threads=2)
        assert all(n == 2 for n in res)

    def test_task_results_via_handles(self):
        def body():
            def spawn():
                return [omp.task(lambda i=i: i * i) for i in range(4)]

            handles = omp.single(spawn)
            omp.taskwait()
            return [h.result(timeout=5) for h in handles]

        res = omp.parallel(body, num_threads=2)
        assert res == [[0, 1, 4, 9]] * 2

    def test_task_error_reported_on_handle(self):
        def body():
            def spawn():
                return omp.task(lambda: 1 / 0)

            h = omp.single(spawn)
            omp.taskwait()
            return h

        handles = omp.parallel(body, num_threads=2)
        with pytest.raises(ZeroDivisionError):
            handles[0].result(timeout=5)

    def test_nested_task_spawning(self):
        """A task may spawn tasks; taskwait keeps draining until quiet."""
        hits = []
        lock = threading.Lock()

        def body():
            def spawn():
                def outer_task():
                    with lock:
                        hits.append("outer")
                    omp.task(lambda: hits.append("inner"))

                omp.task(outer_task)

            omp.single(spawn, nowait=True)
            omp.taskwait()

        omp.parallel(body, num_threads=2)
        assert sorted(hits) == ["inner", "outer"]

    def test_taskwait_outwaits_a_child_another_member_runs(self):
        """An empty pool is not a finished child: a task another member
        already claimed may still be running when its spawner's taskwait
        drains the pool."""
        queued, claimed = threading.Event(), threading.Event()

        def slow():
            claimed.set()
            time.sleep(0.2)

        def body(tid):
            if tid == 0:
                handle = omp.task(slow)
                queued.set()
                assert claimed.wait(5)
                omp.taskwait()
                return handle.done
            assert queued.wait(5)
            omp.taskwait()  # member 1 claims and runs the task

        assert omp.parallel(body, num_threads=2)[0] is True

    def test_taskwait_inside_a_task_waits_for_its_own_children(self):
        """A task that spawns and joins its own children finishes after
        them, and its taskwait does not wait for itself."""
        order = []

        def body():
            def parent_task():
                omp.task(lambda: (time.sleep(0.05), order.append("child")))
                omp.taskwait()
                order.append("parent")

            omp.single(lambda: omp.task(parent_task), nowait=True)
            omp.taskwait()

        omp.parallel(body, num_threads=2)
        assert order == ["child", "parent"]

    def test_work_stealing_across_members(self):
        """Tasks spawned by one member may be executed by others (the team
        pool is shared)."""
        executors = set()
        lock = threading.Lock()

        def body():
            def spawn():
                for _ in range(12):
                    def t():
                        with lock:
                            executors.add(threading.current_thread().name)
                        time.sleep(0.002)

                    omp.task(t)

            omp.single(spawn, nowait=True)
            omp.taskwait()

        omp.parallel(body, num_threads=4)
        # At least the spawning thread helped; usually several do.
        assert len(executors) >= 1
        assert all(name.startswith(("omp-team", "MainThread")) for name in executors)
