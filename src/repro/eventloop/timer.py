"""Swing-style Timer: periodic events dispatched on the EDT.

``javax.swing.Timer`` fires action events on the event-dispatch thread at a
fixed delay, coalescing pending events when the EDT falls behind.  GUI
applications drive animations and polling with it — and it is exactly the
event source that makes a blocked EDT visible (a frozen animation), so the
examples use it as the responsiveness probe.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from .edt import EventLoop

__all__ = ["Timer"]


class Timer:
    """Fires ``callback`` on the EDT every ``delay`` seconds.

    Parameters
    ----------
    loop:
        The event loop whose EDT dispatches the callback.
    delay:
        Seconds between firings.
    callback:
        Called on the EDT with no arguments.
    repeats:
        False = one-shot (fire once, then stop), like ``setRepeats(false)``.
    coalesce:
        If the EDT has not yet dispatched the previous firing, skip queueing
        another (Swing's default behaviour) — a slow EDT sees fewer events
        rather than a growing backlog.
    initial_delay:
        Delay before the first firing (defaults to ``delay``).
    """

    def __init__(
        self,
        loop: EventLoop,
        delay: float,
        callback: Callable[[], Any],
        *,
        repeats: bool = True,
        coalesce: bool = True,
        initial_delay: float | None = None,
    ) -> None:
        if delay <= 0:
            raise ValueError("delay must be positive")
        self.loop = loop
        self.delay = delay
        self.callback = callback
        self.repeats = repeats
        self.coalesce = coalesce
        self.initial_delay = delay if initial_delay is None else initial_delay
        self._lock = threading.Lock()
        self._timer: threading.Timer | None = None
        self._running = False
        self._pending_dispatch = False
        self.fired = 0        # timer expirations
        self.dispatched = 0   # callbacks actually run on the EDT
        self.coalesced = 0    # firings skipped because one was still queued

    # ------------------------------------------------------------- control

    @property
    def is_running(self) -> bool:
        with self._lock:
            return self._running

    def start(self) -> "Timer":
        with self._lock:
            if self._running:
                return self
            self._running = True
            self._schedule(self.initial_delay)
        return self

    def stop(self) -> None:
        with self._lock:
            self._running = False
            if self._timer is not None:
                self._timer.cancel()
                self._timer = None

    def restart(self) -> None:
        """Cancel any pending firing and start over with the initial delay."""
        self.stop()
        self.start()

    # ------------------------------------------------------------ internals

    def _schedule(self, delay: float) -> None:
        # caller holds the lock
        t = threading.Timer(delay, self._expire)
        t.daemon = True
        self._timer = t
        t.start()

    def _expire(self) -> None:
        with self._lock:
            # Only the current chain may fire.  A timer that expired while
            # stop()/restart() held the lock is stale even once the timer
            # runs again; firing it would also start a second chain.
            if threading.current_thread() is not self._timer:
                return
            self.fired += 1
            skip = self.coalesce and self._pending_dispatch
            if skip:
                self.coalesced += 1
            else:
                self._pending_dispatch = True
            if self.repeats:
                self._schedule(self.delay)
            else:
                self._running = False
                self._timer = None
        if not skip:
            self.loop.invoke_later(self._dispatch)

    def _dispatch(self) -> None:
        with self._lock:
            self._pending_dispatch = False
            self.dispatched += 1
        self.callback()
