"""Unit tests for the name_as tag registry."""

import threading

import pytest

from repro.core import RegionFailedError, TagRegistry, TargetRegion


@pytest.fixture()
def tags():
    return TagRegistry()


class TestRegistry:
    def test_outstanding_counts(self, tags):
        r1, r2 = TargetRegion(lambda: 1), TargetRegion(lambda: 2)
        tags.register("t", r1)
        tags.register("t", r2)
        assert tags.outstanding("t") == 2
        r1.run()
        assert tags.outstanding("t") == 1
        r2.run()
        assert tags.outstanding("t") == 0

    def test_region_finished_before_register_detaches_immediately(self, tags):
        r = TargetRegion(lambda: 1)
        r.run()
        tags.register("t", r)
        assert tags.outstanding("t") == 0

    def test_cancelled_region_leaves_group(self, tags):
        r = TargetRegion(lambda: 1)
        tags.register("t", r)
        r.cancel()
        assert tags.outstanding("t") == 0
        tags.wait("t", timeout=1)  # cancellation is not an error for wait()

    def test_clear(self, tags):
        tags.register("t", TargetRegion(lambda: 1))
        tags.clear()
        assert tags.outstanding("t") == 0


class TestWait:
    def test_wait_returns_when_group_empties(self, tags):
        r = TargetRegion(lambda: 1)
        tags.register("t", r)
        t = threading.Timer(0.05, r.run)
        t.start()
        tags.wait("t", timeout=5)
        t.join()

    def test_wait_timeout(self, tags):
        tags.register("t", TargetRegion(lambda: 1))
        with pytest.raises(TimeoutError):
            tags.wait("t", timeout=0.02)

    def test_nonstrict_unknown_tag(self, tags):
        tags.wait("ghost", timeout=1)

    def test_error_propagation(self, tags):
        r = TargetRegion(lambda: 1 / 0)
        tags.register("t", r)
        r.run()
        with pytest.raises(RegionFailedError):
            tags.wait("t", timeout=1)

    def test_errors_consumed_by_wait(self, tags):
        r = TargetRegion(lambda: 1 / 0)
        tags.register("t", r)
        r.run()
        with pytest.raises(RegionFailedError):
            tags.wait("t", timeout=1)
        tags.wait("t", timeout=1)  # second wait sees a clean group

    def test_drained_owes_one_wakeup_however_often_it_is_rechecked(self, tags):
        """The pumping waiter's predicate (``PjRuntime.wait_tag`` on a member
        thread): False arms *wake* for the moment the group empties."""
        r1, r2 = TargetRegion(lambda: 1), TargetRegion(lambda: 2)
        tags.register("t", r1)
        tags.register("t", r2)
        woken = []
        wake = lambda: woken.append(tags.outstanding("t"))  # noqa: E731
        assert not tags.drained("t", wake)
        r1.run()
        assert not tags.drained("t", wake) and woken == []
        r2.run()
        assert woken == [0]  # once, after the group emptied
        assert tags.drained("t", wake) and woken == [0]

    def test_clear_wakes_pumping_waiters(self, tags):
        tags.register("t", TargetRegion(lambda: 1))
        woken = []
        assert not tags.drained("t", lambda: woken.append(1))
        tags.clear()
        assert woken == [1] and tags.drained("t", lambda: woken.append(2))

    def test_many_tags_concurrent(self, tags):
        regions = {f"tag{i}": [TargetRegion(lambda: i) for _ in range(3)] for i in range(5)}
        for tag, rs in regions.items():
            for r in rs:
                tags.register(tag, r)
        threads = [
            threading.Thread(target=lambda rs=rs: [r.run() for r in rs])
            for rs in regions.values()
        ]
        for t in threads:
            t.start()
        for tag in regions:
            tags.wait(tag, timeout=5)
        for t in threads:
            t.join()
        assert all(tags.outstanding(tag) == 0 for tag in regions)
