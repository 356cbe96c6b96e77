"""``repro.obs.Tally``: the one counter type, booked lock-free per thread.

``PjRuntime.counters``, ``VirtualTarget.stats`` and the HTTP server's
``/stats`` counters all book into a Tally; the structure gate at the end
keeps the locked counters it replaced from coming back.
"""

from __future__ import annotations

import importlib.util
import pathlib
import sys
import threading

from repro.core import PjRuntime
from repro.obs import Tally
from repro.serve import HttpServer, ServeConfig

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


def _book(tally: Tally, n: int) -> None:
    counts = tally.local.counts
    for _ in range(n):
        counts["hits"] += 1
    tally.add(threading.get_ident())  # a key that is not one of *keys*


def _join(*threads: threading.Thread) -> None:
    for t in threads:
        t.join(30)
        assert not t.is_alive()


def test_totals_stay_exact_across_threads_half_of_which_end():
    tally = Tally(("hits",))
    booked = threading.Barrier(5, timeout=30)
    release = threading.Event()

    def stays():
        _book(tally, 1000)
        booked.wait()
        release.wait(30)

    ending = [threading.Thread(target=_book, args=(tally, 1000)) for _ in range(4)]
    staying = [threading.Thread(target=stays) for _ in range(4)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # a lost update would show
    try:
        for t in ending + staying:
            t.start()
        _join(*ending)
        booked.wait()
        _book(tally, 500)  # opens a book here: the ended ones fold
        snap = tally.snapshot()
        assert snap["hits"] == 8 * 1000 + 500
        assert sum(snap.values()) == snap["hits"] + 9
        assert list(snap)[0] == "hits"
        assert len(tally._books) == 5  # four live threads and this one
    finally:
        sys.setswitchinterval(switch)
        release.set()
        _join(*staying)


def test_reset_is_an_offset():
    tally = Tally(("a", "b"))
    booked = threading.Event()
    release = threading.Event()

    def other():
        tally.add("a")
        booked.set()
        release.wait(30)
        tally.add("a")  # after the reset

    t = threading.Thread(target=other)
    t.start()
    try:
        assert booked.wait(30)
        tally.add("a")
        tally.add("b")
        tally.reset()
        assert tally.snapshot() == {"a": 0, "b": 0}
        tally.add("b")
    finally:
        release.set()
        _join(t)
    assert tally.snapshot() == {"a": 1, "b": 1}
    # A new thread's first count folds the ended book into the offset base.
    u = threading.Thread(target=tally.add, args=("a",))
    u.start()
    _join(u)
    assert tally.snapshot() == {"a": 2, "b": 1}


def test_snapshot_while_another_thread_adds_keys_does_not_raise():
    tally = Tally()
    done = threading.Event()

    def writer():
        counts = tally.local.counts
        for key in range(50_000):
            counts[key] = 1
        done.set()

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        t = threading.Thread(target=writer)
        t.start()
        snaps = 0
        while not done.is_set():
            tally.snapshot()
            snaps += 1
        _join(t)
    finally:
        sys.setswitchinterval(switch)
    assert snaps > 0
    assert sum(tally.snapshot().values()) == 50_000


def test_every_counter_is_a_tally():
    gone = ("_stats_lock", "_tallies", "_retired", "ServerStats")
    hits = {
        f"{path.relative_to(SRC)}: {name}"
        for path in SRC.rglob("*.py")
        for name in gone
        if name in path.read_text()
    }
    assert hits == set()
    assert importlib.util.find_spec("repro.serve.stats") is None
    rt = PjRuntime()
    try:
        assert isinstance(rt._tally, Tally)
        assert isinstance(rt.create_worker("w", 1)._tally, Tally)
    finally:
        rt.shutdown()
    assert isinstance(HttpServer(ServeConfig()).stats, Tally)
