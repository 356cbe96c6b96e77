"""Work stealing: idle worker lanes drain the most-backlogged sibling.

Membership is the consent model: only targets that opted in (``steal=True``
at creation, or the ``steal_var`` ICV) join a runtime's ring, so a thief can
never pull work into the wrong execution environment — process- and
cluster-backed targets never join because their queued bodies must not run
in this process.

The steal itself preserves every lifecycle invariant: the thief executes the
item through the *victim's* dispatch path, so the item's ``DEQUEUE`` and
``EXEC`` events land on the victim target (matching its ``ENQUEUE``) and a
stolen region still resolves exactly once.  The only trace of the thief is
the ``PUMP_STEAL`` event's attribution payload (see docs/TUNING.md).
"""

from __future__ import annotations

import threading
from typing import Any

__all__ = ["StealRing"]


class StealRing:
    """The set of worker targets stealing from each other.

    One ring per :class:`~repro.core.runtime.PjRuntime`; targets join at
    registration when stealing is enabled for them and leave at shutdown.
    ``steal`` is called by an idle lane after its own queue stayed empty for
    a poll interval.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._members: list[Any] = []

    def register(self, target: Any) -> None:
        with self._lock:
            if target not in self._members:
                self._members.append(target)

    def unregister(self, target: Any) -> None:
        with self._lock:
            if target in self._members:
                self._members.remove(target)

    def members(self) -> list[Any]:
        with self._lock:
            return list(self._members)

    def __len__(self) -> int:
        with self._lock:
            return len(self._members)

    def steal(self, thief: Any) -> tuple[Any, Any] | None:
        """One work item from the deepest sibling queue, or None.

        Victim selection is deepest-backlog-first: the policy exists to fix
        imbalance, so the most imbalanced queue is the one to relieve.  The
        depth read and the steal race against the victim's own lanes (and
        its teardown) by design — ``steal_item`` re-checks under the queue
        lock and returns None when it lost, and the thief simply goes back
        to its own queue.  Returns ``(victim, item)`` on success.
        """
        victim = None
        deepest = 0
        for target in self.members():
            if target is thief or not target.alive:
                continue
            depth = target.work_count()
            if depth > deepest:
                victim, deepest = target, depth
        if victim is None:
            return None
        item = victim.steal_item()
        if item is None:
            return None  # raced to empty/closed; stealing is opportunistic
        return victim, item
