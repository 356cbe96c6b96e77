"""Fault-injection building blocks for the stress harness.

Three fault families, matching the seams the runtime exposes:

* **Scheduling jitter** — :class:`JitterHook` plugs into
  :attr:`repro.core.injection.InjectionHooks.jitter` and sleeps a few hundred
  microseconds at random ``post``/``dispatch`` seam points, widening the race
  windows (cancel vs. corpse check, poster vs. closing queue) that an idle
  machine almost never opens.

* **Forced queue-full** — :class:`ForceQueueFull` plugs into
  :attr:`~repro.core.injection.InjectionHooks.force_queue_full` and makes a
  bounded queue's ``put`` report "no space" on demand, driving all three
  rejection policies (``block``/``reject``/``caller_runs``) without actually
  wedging the workload behind a real backlog.

* **Worker death** — :func:`kill_worker` hard-kills one worker process of a
  :class:`~repro.dist.ProcessTarget`, exercising the lane shipper's crash
  detection, region fail-over and restart path under load.

Both hook classes own *private* :class:`random.Random` instances: they are
called from arbitrary runtime threads, and sharing the harness's op-stream
RNG would let thread timing perturb the deterministic workload schedule.
"""

from __future__ import annotations

import random
import time

__all__ = ["JitterHook", "ForceQueueFull", "kill_worker"]


class JitterHook:
    """Randomized sleep at injection seam points.

    ``probability`` is the chance any one seam crossing sleeps at all;
    ``max_sleep_s`` bounds the sleep.  Thread-safe: ``random.Random`` methods
    are atomic under the GIL, and there is no other shared state.
    """

    def __init__(
        self,
        rng: random.Random,
        *,
        probability: float = 0.15,
        max_sleep_s: float = 0.002,
    ) -> None:
        self._rng = rng
        self.probability = probability
        self.max_sleep_s = max_sleep_s

    def __call__(self, point: str, target_name: str) -> None:
        r = self._rng.random()
        if r < self.probability:
            time.sleep(r / self.probability * self.max_sleep_s)


class ForceQueueFull:
    """Toggleable forced-full hook scoped to a set of target names.

    While :attr:`active`, a bounded put on a matching target reports full
    with the given ``probability`` — so inside a fault window the poster
    population still makes progress while every rejection policy gets hit.
    """

    def __init__(
        self,
        rng: random.Random,
        targets: tuple[str, ...],
        *,
        probability: float = 0.5,
    ) -> None:
        self._rng = rng
        self.targets = frozenset(targets)
        self.probability = probability
        self.active = False
        self.hits = 0

    def __call__(self, owner_name: str) -> bool:
        if not self.active or owner_name not in self.targets:
            return False
        if self._rng.random() < self.probability:
            self.hits += 1
            return True
        return False


def kill_worker(target, index: int = 0) -> int | None:
    """Hard-kill worker *index* of a process-backed target; returns its pid.

    The lane's shipper observes the death, fails the in-flight region with
    :class:`~repro.core.errors.WorkerCrashedError`, and (within its restart
    budget) respawns the lane — all of which the invariant verifier then
    audits: the crashed region's ``ENQUEUE``/``DEQUEUE`` must still resolve,
    and its half-open worker-side ``EXEC_BEGIN`` must never reach the trace
    (crash-lost events ship with results, and a dead worker ships nothing).
    """
    slot = target._slots[index]
    pid = slot.pid
    slot.terminate()
    return pid
