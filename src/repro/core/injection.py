"""Fault/jitter injection seam for the ``repro.check`` stress harness.

The runtime's concurrency bugs live in interleavings that unit tests on an
idle machine almost never produce: a cancel landing between the corpse check
and ``EXEC_BEGIN``, a poster racing a closing queue, a full bounded queue hit
at exactly the wrong moment.  This module is the *only* hook the stress
harness (:mod:`repro.check`) has into the dispatch path: a process-global
:class:`InjectionHooks` bundle that seam points in
:mod:`repro.core.targets` consult.

Seam points (the string passed to :attr:`InjectionHooks.jitter` and
:attr:`InjectionHooks.decision`):

* ``"post"`` — in :meth:`VirtualTarget.post`, before the enqueue.  Every
  target kind (thread pool, EDT, asyncio adapter, process and cluster
  lanes) admits through that one method, so the seam — and a shutdown
  sealing the queue behind a poster parked at it — covers them all.
* ``"dispatch"`` — in :meth:`VirtualTarget._dispatch`, after an item left
  the queue and before its body runs (the *delayed dequeue* fault: widens
  the window in which a cancel or shutdown can race the execution).

Two hooks observe those points, serving two different testing styles:

* :attr:`InjectionHooks.jitter` *samples* interleavings: it may sleep a
  random amount, so racy windows get hit with some probability per run
  (the ``repro.check`` stress harness).
* :attr:`InjectionHooks.decision` *enumerates* them: it may block the
  calling thread until a deterministic scheduler grants it the turn, so
  the exact sequence of seam crossings is chosen, recorded and replayed
  (the ``repro.explore`` systematic explorer).  It runs before ``jitter``
  at every seam point.

:attr:`InjectionHooks.force_queue_full` lets the harness make a *bounded*
queue report full on demand, driving all three rejection policies
(``block``/``reject``/``caller_runs``) without having to actually fill the
queue and risk wedging the workload.

Cost when disarmed (the production case): one module-attribute read and one
branch per seam point — the same budget as a disabled trace call site.
Hooks are test-only by contract; nothing in the runtime installs them.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterator

__all__ = ["InjectionHooks", "install", "uninstall", "installed", "hooks"]


class InjectionHooks:
    """Bundle of optional fault/jitter/scheduling callbacks.

    ``decision(point, target_name)`` is called first at each armed seam
    point and may *block* until a deterministic scheduler picks this thread
    to proceed; ``jitter(point, target_name)`` is called next and may sleep
    to perturb scheduling; ``force_queue_full(owner_name) -> bool`` makes a
    bounded queue's ``put`` report full when it returns True (it is never
    consulted for unbounded queues).  All are invoked from arbitrary
    runtime threads and must be thread-safe.
    """

    __slots__ = ("jitter", "force_queue_full", "decision")

    def __init__(
        self,
        *,
        jitter: Callable[[str, str], None] | None = None,
        force_queue_full: Callable[[str], bool] | None = None,
        decision: Callable[[str, str], None] | None = None,
    ) -> None:
        self.jitter = jitter
        self.force_queue_full = force_queue_full
        self.decision = decision

    def fire(self, point: str, target_name: str) -> None:
        """Cross one seam point: decision (may block), then jitter (may sleep).

        Seam call sites in the runtime call this instead of reading the
        individual hooks, so new hooks reach every seam at once.  No lock is
        held by any caller when a seam fires — a blocking ``decision`` must
        never be able to wedge a queue.
        """
        d = self.decision
        if d is not None:
            d(point, target_name)
        j = self.jitter
        if j is not None:
            j(point, target_name)


#: The armed hook bundle, or None (the production state).  Seam points read
#: this once per call; install/uninstall rebind it atomically under the GIL.
hooks: InjectionHooks | None = None


def install(bundle: InjectionHooks) -> None:
    """Arm *bundle* process-wide (replacing any previous bundle)."""
    global hooks
    hooks = bundle


def uninstall() -> None:
    """Disarm all injection hooks (the production state)."""
    global hooks
    hooks = None


@contextlib.contextmanager
def installed(bundle: InjectionHooks) -> Iterator[InjectionHooks]:
    """Context manager: arm *bundle* for the block, always disarm after."""
    install(bundle)
    try:
        yield bundle
    finally:
        uninstall()
