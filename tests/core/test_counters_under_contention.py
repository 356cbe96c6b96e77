"""The dispatch counters stay exact when many threads dispatch at once.

A dispatch books the runtime's counters in a tally of the dispatching
thread and the target's ``posted``/``high_water`` under the queue lock its
``put`` holds; neither takes a lock of its own.  Four posters and two lanes
dispatching inline sub-regions all count at once here, and every figure
must still equal what was issued.
"""

from __future__ import annotations

import sys
import threading

from repro.core import PjRuntime

POSTERS, PER_POSTER = 4, 5000


def test_counters_equal_what_was_issued_under_contention():
    rt = PjRuntime()
    target = rt.create_worker("w", 2)
    stop = threading.Event()
    storming = threading.Barrier(3)
    inline_counts = []

    def storm():
        # Occupies a lane, so every post below stays queued, while booking
        # inline dispatches from the lane thread.
        storming.wait(5)
        n = 0
        while not stop.is_set():
            rt.invoke_target_block("w", lambda: None, "nowait")  # member: inline
            n += 1
        inline_counts.append(n)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often: between reads and writes
    try:
        storms = [rt.invoke_target_block("w", storm, "nowait") for _ in range(2)]
        storming.wait(5)
        handles = [[] for _ in range(POSTERS)]

        def poster(mine):
            for k in range(PER_POSTER):
                mine.append(rt.invoke_target_block("w", lambda k=k: k, "nowait"))

        threads = [threading.Thread(target=poster, args=(h,)) for h in handles]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
            assert not t.is_alive()
        posted = POSTERS * PER_POSTER
        assert target.work_count() == posted  # nothing was dequeued meanwhile
        stop.set()
        for h in storms + [h for mine in handles for h in mine]:
            assert h.wait(30)

        inline = sum(inline_counts)
        assert inline > 0
        assert target.stats["posted"] == posted + 2
        assert target.stats["high_water"] == posted
        counters = rt.counters
        assert counters["posted"] == posted + 2
        assert counters["inline"] == inline
        assert counters["nowait"] == posted + 2 + inline
        assert counters["default"] == counters["name_as"] == counters["await"] == 0
    finally:
        sys.setswitchinterval(interval)
        stop.set()
        rt.shutdown(wait=False)
