"""A ``wait(tag)`` waiter wakes when its group drains, not at every
completion under every tag."""

from __future__ import annotations

import threading
import time

from repro.core import TargetRegion
from repro.core.tags import TagRegistry


class _CountingOutstanding(dict):
    """The registry's tag -> live-regions map, counting the reads of one
    tag: a blocked ``wait`` reads it once per predicate evaluation."""

    def __init__(self, watched: str, *args) -> None:
        super().__init__(*args)
        self.watched, self.reads = watched, 0

    def get(self, key, default=None):
        if key == self.watched:
            self.reads += 1
        return super().get(key, default)


def test_completions_under_one_tag_do_not_wake_a_waiter_on_another():
    tags = TagRegistry()
    held = TargetRegion(lambda: None)
    tags.register("b", held)
    tags._outstanding = reads = _CountingOutstanding("b", tags._outstanding)
    waiter = threading.Thread(target=tags.wait, args=("b",), kwargs={"timeout": 10})
    waiter.start()
    deadline = time.monotonic() + 5
    while reads.reads < 1 and time.monotonic() < deadline:
        time.sleep(0.001)
    with tags._lock:  # the waiter released it inside its wait: it sleeps
        before = reads.reads
    for k in range(200):
        region = TargetRegion(lambda k=k: k)
        tags.register("a", region)
        region.run()
    time.sleep(0.05)  # a woken waiter would re-check within this
    assert reads.reads == before
    held.run()  # its own group drains: that wakes it
    waiter.join(5)
    assert not waiter.is_alive()
