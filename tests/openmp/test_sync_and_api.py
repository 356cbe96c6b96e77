"""Tests for synchronization constructs, reductions, and the omp_* API."""

import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.openmp as omp
from repro.openmp import Atomic, WorksharingError


class TestCritical:
    def test_mutual_exclusion(self):
        counter = {"v": 0}

        def body():
            for _ in range(200):
                with omp.critical("count"):
                    v = counter["v"]
                    # A deliberate read-modify-write window.
                    counter["v"] = v + 1

        omp.parallel(body, num_threads=4)
        assert counter["v"] == 800

    def test_named_criticals_independent(self):
        """Different names use different locks: holding one must not block
        the other."""
        order = []
        a_held = threading.Event()

        def body(tid):
            if tid == 0:
                with omp.critical("a"):
                    a_held.set()
                    time.sleep(0.1)
                    order.append("a-done")
            else:
                a_held.wait(timeout=5)
                with omp.critical("b"):
                    order.append("b-done")

        omp.parallel(body, num_threads=2)
        assert order == ["b-done", "a-done"]

    def test_reentrant(self):
        with omp.critical("outer"):
            with omp.critical("outer"):
                pass  # OpenMP would deadlock; we document re-entrancy

    def test_usable_outside_region(self):
        with omp.critical():
            pass


class TestBarrier:
    def test_barrier_synchronises(self):
        phase = []
        lock = threading.Lock()

        def body(tid):
            with lock:
                phase.append(("pre", tid))
            omp.barrier()
            with lock:
                phase.append(("post", tid))

        omp.parallel(body, num_threads=4)
        pres = [i for i, (p, _) in enumerate(phase) if p == "pre"]
        posts = [i for i, (p, _) in enumerate(phase) if p == "post"]
        assert max(pres) < min(posts)

    def test_barrier_outside_region(self):
        with pytest.raises(WorksharingError):
            omp.barrier()


class TestAtomic:
    def test_concurrent_adds(self):
        cell = Atomic(0)
        omp.parallel(lambda: [cell.add(1) for _ in range(500)], num_threads=4)
        assert cell.value == 2000

    def test_update_returns_new_value(self):
        cell = Atomic(10)
        assert cell.update(lambda v: v * 3) == 30

    def test_compare_and_swap(self):
        cell = Atomic("a")
        assert cell.compare_and_swap("a", "b")
        assert not cell.compare_and_swap("a", "c")
        assert cell.value == "b"

    def test_setter(self):
        cell = Atomic(1)
        cell.value = 99
        assert cell.value == 99

    def test_atomic_update_is_update(self):
        cell = Atomic(0)
        omp.parallel(lambda: [omp.atomic_update(cell, lambda v: v + 2) for _ in range(250)],
                     num_threads=4)
        assert cell.value == 2000
        assert omp.atomic_update(cell, lambda v: v // 10) == 200 == cell.value


class TestReductionTable:
    @pytest.mark.parametrize(
        "op,values,expected",
        [
            ("+", [1, 2, 3], 6),
            ("*", [2, 3, 4], 24),
            ("max", [3, 9, 1], 9),
            ("min", [3, 9, 1], 1),
            ("&&", [True, True, False], False),
            ("||", [False, False, True], True),
            ("&", [0b110, 0b011], 0b010),
            ("|", [0b100, 0b001], 0b101),
            ("^", [0b101, 0b011], 0b110),
        ],
    )
    def test_operator_folds(self, op, values, expected):
        fn = omp.REDUCTIONS[op]
        acc = omp.identity_for(op)
        for v in values:
            acc = fn(acc, v)
        assert acc == expected

    def test_register_custom_reduction(self):
        import uuid

        name = f"concat-{uuid.uuid4().hex[:6]}"
        omp.register_reduction(name, lambda a, b: a + b, "")

        def body():
            return omp.for_loop(["x", "y", "z"], lambda s: s, reduction=name)

        assert omp.parallel(body, num_threads=1) == ["xyz"]

    def test_register_duplicate_rejected(self):
        with pytest.raises(ValueError):
            omp.register_reduction("+", lambda a, b: a, 0)

    @given(st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=60),
           st.integers(min_value=1, max_value=6))
    @settings(max_examples=25, deadline=None)
    def test_parallel_sum_matches_sequential(self, values, nthreads):
        def body():
            return omp.for_loop(values, lambda x: x, reduction="+")

        res = omp.parallel(body, num_threads=nthreads)
        assert res == [sum(values)] * nthreads


class TestRuntimeApi:
    def test_outside_any_region(self):
        assert omp.omp_get_thread_num() == 0
        assert omp.omp_get_num_threads() == 1
        assert not omp.omp_in_parallel()
        assert omp.omp_get_level() == 0
        assert omp.omp_get_team_size(1) == 1

    def test_inside_region(self):
        res = omp.parallel(
            lambda: (
                omp.omp_get_num_threads(),
                omp.omp_in_parallel(),
                omp.omp_get_team_size(1),
            ),
            num_threads=3,
        )
        assert res == [(3, True, 3)] * 3

    def test_thread_nums_unique(self):
        res = omp.parallel(lambda: omp.omp_get_thread_num(), num_threads=5)
        assert sorted(res) == [0, 1, 2, 3, 4]

    def test_wtime_monotonic(self):
        a = omp.omp_get_wtime()
        b = omp.omp_get_wtime()
        assert b >= a

    def test_set_get_max_threads(self):
        old = omp.omp_get_max_threads()
        try:
            omp.omp_set_num_threads(7)
            assert omp.omp_get_max_threads() == 7
        finally:
            omp.omp_set_num_threads(old)

    def test_set_num_threads_validation(self):
        with pytest.raises(ValueError):
            omp.omp_set_num_threads(0)

    def test_max_active_levels_validation(self):
        with pytest.raises(ValueError):
            omp.omp_set_max_active_levels(0)

    @staticmethod
    def _inner_team_sizes() -> list[list[int]]:
        return omp.parallel(lambda: omp.parallel(omp.omp_get_num_threads, num_threads=2),
                            num_threads=2)

    def test_nested_flag_round_trips_and_gates_inner_teams(self):
        assert omp.omp_get_nested() is True  # the default
        try:
            omp.omp_set_nested(False)
            assert omp.omp_get_nested() is False
            assert self._inner_team_sizes() == [[1], [1]]
        finally:
            omp.omp_set_nested(True)
        assert omp.omp_get_nested() is True
        assert self._inner_team_sizes() == [[2, 2], [2, 2]]

    def test_max_active_levels_round_trips_and_caps_nesting(self):
        old = omp.omp_get_max_active_levels()
        assert old == 4  # the default
        try:
            omp.omp_set_max_active_levels(1)
            assert omp.omp_get_max_active_levels() == 1
            assert self._inner_team_sizes() == [[1], [1]]
        finally:
            omp.omp_set_max_active_levels(old)
        assert omp.omp_get_max_active_levels() == old
        assert self._inner_team_sizes() == [[2, 2], [2, 2]]

    def test_single_member_team_not_in_parallel(self):
        # omp_in_parallel is false for a serialised (size-1) region.
        res = omp.parallel(lambda: omp.omp_in_parallel(), num_threads=1)
        assert res == [False]
