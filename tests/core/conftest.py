"""One factory for "a target of kind K whose consumer is parked".

The queue contracts (rejection policies, ``force_queue_full``, corpse
handling) belong to ``VirtualTarget.post`` + ``_TargetQueue``, so every
target kind must honour them identically.  The contract tests take the kind
as an input: this fixture builds the target so that nothing is consumed —
posts stay queued, every counter starts at zero — until the returned gate
is set.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.adapters import AsyncioEdtTarget
from repro.core import injection
from repro.core.region import TargetRegion
from repro.core.targets import EdtTarget, WorkerTarget


class _Gate:
    """``set()`` starts consumption (idempotent); ``close()`` tears down."""

    def __init__(self, start, stop=lambda: None) -> None:
        self._start, self._stop = start, stop

    def set(self) -> None:
        start, self._start = self._start, None
        if start is not None:
            start()

    def close(self) -> None:
        self.set()
        self._stop()


def _make(kind: str, name: str, **queue_options):
    if kind == "edt":
        # Unbound: nobody drives the queue until the EDT thread is spawned.
        target = EdtTarget(name, **queue_options)
        return target, _Gate(target.start_in_thread)
    if kind == "worker":
        target = WorkerTarget(name, 1, **queue_options)
        parked, release = threading.Event(), threading.Event()
        # Straight onto the queue, not through post(), and with any armed
        # fault hooks stood down: the lane parks without disturbing the
        # counters or the hook-call record under test.
        armed, injection.hooks = injection.hooks, None
        try:
            target._queue.put(TargetRegion(lambda: (parked.set(), release.wait())))
        finally:
            injection.hooks = armed
        assert parked.wait(2.0)
        return target, _Gate(release.set)
    if kind == "asyncio":
        # A loop that is not running yet only collects callbacks.
        loop = asyncio.new_event_loop()
        target = AsyncioEdtTarget(name, loop, **queue_options)
        thread = threading.Thread(target=loop.run_forever, daemon=True)

        def stop() -> None:
            loop.call_soon_threadsafe(loop.stop)
            thread.join(5.0)
            loop.close()

        return target, _Gate(thread.start, stop)
    raise ValueError(kind)


@pytest.fixture()
def parked_target():
    """``make(kind, name, **queue_options) -> (target, gate)``."""
    made: list[tuple] = []

    def make(kind: str, name: str, **queue_options):
        pair = _make(kind, name, **queue_options)
        made.append(pair)
        return pair

    yield make
    for target, gate in made:
        target.shutdown(wait=False)
        gate.close()
