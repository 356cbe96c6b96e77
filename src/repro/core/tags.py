"""Named task groups for the ``name_as``/``wait`` clauses (paper §III-C).

Different target blocks are allowed to share the same name-tag; a later
``wait(tag)`` suspends the encountering thread until **all** live instances
tagged with it have finished.  The registry therefore tracks a multiset of
outstanding regions per tag.
"""

from __future__ import annotations

import threading
from typing import Callable

from .errors import AwaitTimeoutError, RegionCancelledError, RegionFailedError
from .region import RegionState, TargetRegion

__all__ = ["TagRegistry"]


class TagRegistry:
    """Thread-safe tag → outstanding-regions bookkeeping."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._outstanding: dict[str, set[TargetRegion]] = {}
        self._completed_with_error: dict[str, list[RegionFailedError]] = {}
        # Per tag, what to call when its group next empties (see drained()).
        self._wakers: dict[str, set[Callable[[], None]]] = {}

    def register(self, tag: str, region: TargetRegion) -> None:
        """Attach *region* to *tag*; automatically detaches on completion."""
        with self._lock:
            self._outstanding.setdefault(tag, set()).add(region)
        region.add_done_callback(lambda r: self._on_done(tag, r))

    def _on_done(self, tag: str, region: TargetRegion) -> None:
        wakers = ()
        with self._lock:
            live = self._outstanding.get(tag)
            if live is not None:
                live.discard(region)
                if not live:
                    del self._outstanding[tag]
                    wakers = self._wakers.pop(tag, wakers)
            if region.exception is not None:
                # Includes regions cancelled *with a reason* (a drained
                # target's lost work): wait_tag must surface those, while a
                # bare cancel() stays a benign withdrawal.
                err_cls = (
                    RegionCancelledError
                    if region.state is RegionState.CANCELLED
                    else RegionFailedError
                )
                self._completed_with_error.setdefault(tag, []).append(
                    err_cls(region.name, region.exception)
                )
        for wake in wakers:  # outside the lock: a waker takes a queue lock
            wake()

    def outstanding(self, tag: str) -> int:
        with self._lock:
            return len(self._outstanding.get(tag, ()))

    def drained(self, tag: str, wake: Callable[[], None]) -> bool:
        """True if no region under *tag* is outstanding; otherwise False,
        having arranged one call of *wake* when the group next empties.

        The predicate of every waiter, so one wakes only when its own group
        drains.  Re-arming with an equal callable is idempotent, so however
        often it re-checks, one wakeup is owed.
        """
        with self._lock:
            if not self._outstanding.get(tag):
                return True
            self._wakers.setdefault(tag, set()).add(wake)
            return False

    def wait(self, tag: str, *, timeout: float | None = None) -> None:
        """Block until every region registered under *tag* has finished,
        then re-raise the first :class:`RegionFailedError` recorded under it.

        A tag that was never registered is trivially complete, as in the
        paper.
        """
        woken = threading.Condition()  # this waiter's own
        def wake() -> None:
            with woken:
                woken.notify()
        with woken:  # held across the arming in drained(): no lost wakeup
            if not woken.wait_for(lambda: self.drained(tag, wake), timeout):
                raise AwaitTimeoutError(f"timed out waiting for tag {tag!r}")
        self.raise_errors(tag)

    def raise_errors(self, tag: str) -> None:
        """Consume the failures recorded under *tag* and raise the first."""
        with self._lock:
            errors = self._completed_with_error.pop(tag, None)
        if errors:
            raise errors[0]

    def clear(self, *, keep_errors: bool = False) -> None:
        """Forget all tag bookkeeping (waiters unblock as trivially complete).

        ``keep_errors=True`` preserves recorded failures — runtime shutdown
        uses it so waiters released by the teardown still learn that their
        regions were cancelled rather than observing a clean join.
        """
        with self._lock:
            self._outstanding.clear()
            if not keep_errors:
                self._completed_with_error.clear()
            wakers = set().union(*self._wakers.values())
            self._wakers.clear()
        for wake in wakers:
            wake()
