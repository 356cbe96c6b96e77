"""QUEUE_DEPTH sampling: every 8th transition of a target
(``QUEUE_DEPTH_SAMPLE_STRIDE``), per recording window.

1. The first transition of every recording window samples, so a short trace
   still carries depth data however many ticks the last window left behind.
2. The per-target transition counter is an ``itertools.count`` drawn
   atomically: racing poster/worker threads never lose an increment (a bare
   ``self._tick += 1`` did) and skew which transitions get sampled.
"""

from __future__ import annotations

import threading

from repro import obs
from repro.core.targets import EdtTarget
from repro.obs.events import EventKind


def depth_samples(session, target):
    return [
        e for e in session.events()
        if e.kind is EventKind.QUEUE_DEPTH and e.target == target
    ]


def pump(target, n):
    for _ in range(n):
        target.post(lambda: None)
    target.drain()


def test_first_transition_of_every_recording_window_samples():
    t = EdtTarget("stride-edt")
    t.register_current_thread()
    try:
        for _ in range(2):  # same target object, two windows
            session = obs.enable()
            pump(t, 1)  # 2 transitions, fewer than a stride: only the first samples
            assert len(depth_samples(session, "stride-edt")) == 1
            pump(t, 5)  # ticks 2..11 of the same window: tick 8 samples
            assert len(depth_samples(session, "stride-edt")) == 2
            obs.disable()
    finally:
        t._exit_member()


def test_depth_tick_is_race_tolerant():
    session = obs.enable()
    t = EdtTarget("race-edt")  # never started: posts only enqueue
    t.post(lambda: None)  # prime tick 0 single-threaded

    def blast():
        for _ in range(50):
            t.post(lambda: None)

    threads = [threading.Thread(target=blast) for _ in range(4)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    # 201 enqueue ticks total (0..200); with an atomic counter exactly every
    # 8th tick samples: 0, 8, ..., 200 → 26.  A lost-update counter would
    # repeat tick values and emit a different (plurality: larger) number.
    assert len(depth_samples(session, "race-edt")) == 26
