"""Region bodies shipped to worker processes by the dist tests.

Module-level functions, importable as ``tests.dist.bodies`` from a spawned
child (sys.path travels with the spawn preamble), so they cross the wire by
reference under plain pickle and by value under cloudpickle alike.
"""

from __future__ import annotations

import glob
import os
import sys
import time

from repro.core.region import current_region


def start_state(variable):
    """What the worker started with: *variable* from its environment, its
    working directory and its ``sys.path``."""
    return os.environ.get(variable), os.getcwd(), list(sys.path)


def meet(n):
    """Return this worker's pid once *n* regions run at once, each on its
    own lane: every call leaves a file in the working directory and waits
    (30 s at most) for *n* of them."""
    open(f"here-{os.getpid()}", "w").close()
    deadline = time.monotonic() + 30
    while len(glob.glob("here-*")) < n and time.monotonic() < deadline:
        time.sleep(0.01)
    return os.getpid()


def square(x):
    """Trivial CPU body."""
    return x * x


def add(a, b):
    """Body with two positional args."""
    return a + b


def sleepy(seconds, value=None):
    """Sleep then return *value* (defaults to *seconds*)."""
    time.sleep(seconds)
    return seconds if value is None else value


def boom(message="kapow"):
    """Raise ValueError(message)."""
    raise ValueError(message)


def hard_exit(code=7):
    """Kill the worker process abruptly, mid-region (no cleanup, no excuses)."""
    os._exit(code)


def stubborn_sleep(seconds=300.0):
    """Sleep ignoring cooperative cancellation — simulates a stuck worker."""
    time.sleep(seconds)


def cooperative_loop(seconds=300.0):
    """Spin until cancelled (polls the region's cancel token); returns early
    with 'cancelled' when the token flips."""
    region = current_region()
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        if region is not None and region.cancel_token.cancelled:
            return "cancelled"
        time.sleep(0.01)
    return "timeout"


def worker_pid():
    """Report the executing process's pid."""
    return os.getpid()


def unpicklable_result():
    """Return something no pickler can ship (a thread lock)."""
    import threading

    return threading.Lock()


def raise_unpicklable():
    """Raise an exception instance that cannot be pickled."""
    import threading

    class Cursed(Exception):
        def __init__(self):
            super().__init__("cursed")
            self.lock = threading.Lock()

    raise Cursed()


def echo(x):
    """Return the argument (a payload makes the trip twice)."""
    return x


def describe(x):
    """What the worker actually received: type name, length and CRC-32 of a
    bytes-like argument — fidelity checked on the far side of the hop."""
    import zlib

    return type(x).__name__, len(x), zlib.crc32(x)
