"""Virtual targets: software executors for the extended ``target`` directive.

A *virtual target* (paper §III-A) is a syntax-level abstraction of a thread
pool executor; it shares the host memory, so posting a region to it involves
no data mapping.  The paper's experimental implementation offers two kinds
(Table II), reproduced here:

* :class:`WorkerTarget` — a named pool of ``m`` background threads
  (``virtual_target_create_worker``).
* :class:`EdtTarget` — a single special thread, typically the GUI event
  dispatch thread, that the application registers
  (``virtual_target_register_edt``).

Both support the *logical barrier* needed by the ``await`` clause: a thread
that belongs to a target can process other queued work while it waits for an
offloaded region to complete (Algorithm 1 lines 13-16).
"""

from __future__ import annotations

import abc
import itertools
import logging
import queue
import threading
import time
from collections import deque
from functools import partial
from typing import Any, Callable

from ..obs import EventKind
from ..obs import recorder as _obs
from ..obs.events import now_ns
from ..obs.metrics import Tally
from . import injection as _inj
from .errors import (
    AwaitTimeoutError,
    QueueFullError,
    RuntimeStateError,
    TargetShutdownError,
)
from .region import _CANCELLED, _FAILED, TargetRegion

__all__ = [
    "VirtualTarget",
    "WorkerTarget",
    "EdtTarget",
    "current_target",
    "REJECTION_POLICIES",
]


_thread_target = threading.local()
_logger = logging.getLogger(__name__)
_SESSION = _obs.session()  # the process-global trace session, never rebound

# The per-region emit sites record their kinds as plain ints, bound once:
# a record holding an enum member stays tracked by the garbage collector as
# long as its ring keeps it, and on Python 3.11 reading a member off its
# class goes through ``EnumType.__getattr__`` (~130 ns).
_ENQUEUE, _DEQUEUE, _EXEC_BEGIN, _EXEC_END, _QUEUE_DEPTH = (
    k.value for k in (EventKind.ENQUEUE, EventKind.DEQUEUE, EventKind.EXEC_BEGIN,
                      EventKind.EXEC_END, EventKind.QUEUE_DEPTH)
)

#: Valid values for a target's bounded-queue rejection policy:
#: ``block`` parks the poster until space frees (or its timeout elapses),
#: ``reject`` raises :class:`QueueFullError` immediately, and
#: ``caller_runs`` executes the item in the posting thread — the classic
#: ThreadPoolExecutor.CallerRunsPolicy backpressure valve.
REJECTION_POLICIES = ("block", "reject", "caller_runs")


#: With tracing on, every Nth enqueue/dequeue of a target emits a
#: ``QUEUE_DEPTH`` sample, not every one: depth is a *trend* signal (Perfetto
#: renders it as a counter track), so the stride loses nothing a human reads
#: from the chart while sparing the steady-state dispatch loop two events
#: and a depth computation per region.  The first transition of each
#: recording window always samples, so short traces still carry depth data.
QUEUE_DEPTH_SAMPLE_STRIDE = 8


def current_target() -> "VirtualTarget | None":
    """The virtual target the calling thread belongs to, if any."""
    return getattr(_thread_target, "value", None)


#: The one thing besides work a target queue holds: it ends the owner loop
#: that dequeues it.  Shutdown queues one per loop, FIFO behind the backlog;
#: it rides uncounted (past capacity and closure, never in ``work_count()``),
#: is alone in its ``get_batch`` batch, and guests and thieves leave it in
#: place — swallowing one would leave a loop running forever.
_SHUTDOWN: Any = object()


def _log_unhandled(target: str, region: TargetRegion) -> None:
    """Done-callback of a callable :meth:`VirtualTarget.post` wrapped: it has
    no waiter, so a failure is logged here (regions report via their handle;
    a failing callable must not kill the dispatch loop, as on AWT's EDT)."""
    if region._state is _FAILED:
        _logger.error(
            "unhandled exception in %r posted to %s", region.body, target,
            exc_info=region._exception,
        )


class _TargetQueue:
    """The FIFO behind a virtual target, with optional capacity.

    ``queue.Queue`` cannot express what shutdown needs: its marker must
    always get through (a full queue would otherwise wedge shutdown itself),
    and a teardown must be able to atomically rip out every queued item to
    cancel it.  So this is a small purpose-built deque + condvars.

    The queue holds work — :class:`TargetRegion` instances — and, via
    :meth:`put_shutdown`, ``_SHUTDOWN`` markers: nothing else.  Capacity
    counts work only.

    Which consumer may take which item is decided here and nowhere else:
    a loop owner (:meth:`get_batch`) takes the head whatever it is, a guest
    (:meth:`get`) or ring thief (:meth:`steal_work`) the oldest work item.
    A shutdown marker they pass over keeps its place, so work queued before
    it always runs before the loop that dequeues it exits.

    A barrier wakeup is not an item, so no consumer can take it from the
    guest it is owed to: :meth:`wakeup` bumps :attr:`wakeups` and notifies,
    and a guest's :meth:`get` gives up once the count has moved past the
    value the guest read before it last checked its predicate.

    The hot path takes the raw ``_lock`` (by ``acquire``/``release``, half
    the cost of ``with`` on CPython 3.11), and a producer notifies only
    while :attr:`_asleep` counts a consumer in a not-empty wait.
    """

    def __init__(self, owner: str, capacity: int | None = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        self._owner = owner
        self.capacity = capacity
        self._items: deque[Any] = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        self._closed = False
        self.high_water = 0
        # Work items currently queued (shutdown markers excluded), maintained
        # O(1) at put/get so capacity checks and depth samples never rescan
        # the backlog.  Guarded by ``_lock``; read lock-free for telemetry.
        self._work = 0
        #: Work admitted by ``VirtualTarget.post``, booked like ``_work``.
        self.posted = 0
        #: Consumers in a not-empty wait (an exception may leave it high).
        self._asleep = 0
        #: Wakeups issued so far.  Bumped under ``_lock``; a guest reads it
        #: lock-free *before* its predicate and hands the value to ``get``.
        self.wakeups = 0

    # ------------------------------------------------------------- producers

    def put(self, item: Any, block: bool = True, timeout: float | None = None,
            admit: bool = False) -> bool:
        """Enqueue work *item*; returns False if a bounded queue stayed full.

        With ``block=True`` waits for space (bounded by *timeout*).  *admit*
        books the item in :attr:`posted`, as ``VirtualTarget.post`` does; a
        raw put leaves the counter alone.  Raises
        :class:`TargetShutdownError` once the queue is closed — also out of
        the wait, so a poster blocked on a full queue cannot outlive the
        target.
        """
        cap = self.capacity
        if cap is not None:
            hooks = _inj.hooks
            if (
                hooks is not None
                and hooks.force_queue_full is not None
                and hooks.force_queue_full(self._owner)
            ):
                # Fault injection: behave exactly as a bounded put that found
                # no space within its budget, so every rejection policy is
                # reachable without actually wedging the queue.  An unbounded
                # queue can never be full and never consults the hook.
                return False
        self._lock.acquire()
        try:
            if cap is not None and self._work >= cap:
                if not block or not self._not_full.wait_for(
                    lambda: self._closed or self._work < cap, timeout=timeout
                ):
                    return False
            if self._closed:
                raise TargetShutdownError(self._owner)
            self._items.append(item)
            work = self._work = self._work + 1
            self.posted += admit
            if work > self.high_water:
                self.high_water = work
            if self._asleep:
                self._not_empty.notify()
        finally:
            self._lock.release()
        return True

    def put_shutdown(self) -> None:
        """Queue one ``_SHUTDOWN`` marker, ignoring capacity and closure."""
        with self._not_empty:
            self._items.append(_SHUTDOWN)
            # Owners and guests wait on one condition and a guest cannot take
            # the marker: one notify could be spent on it and lost.
            self._not_empty.notify_all()

    def wakeup(self) -> None:
        """Make every guest in :meth:`get` (or owner passing *seen*) return
        and re-check its predicate.  Nothing is queued: any other owner
        loop woken by the notify finds no item and goes back to sleep."""
        with self._lock:
            self.wakeups += 1
            if self._asleep:
                self._not_empty.notify_all()

    # ------------------------------------------------------------- consumers

    def _pop(self, index: int = 0) -> Any:
        """Remove and return item *index* — the one dequeue (lock held)."""
        items = self._items
        if index:
            item = items[index]
            del items[index]
        else:
            item = items.popleft()
        if item is not _SHUTDOWN:
            self._work -= 1
            if self.capacity is not None:
                self._not_full.notify()
        return item

    def _oldest_work(self) -> int:
        """Index of the oldest work item, past any shutdown markers queued
        ahead of it (lock held; one must exist)."""
        if len(self._items) == self._work:
            return 0
        return next(i for i, item in enumerate(self._items) if item is not _SHUTDOWN)

    def get(self, timeout: float | None = None, seen: int | None = None) -> Any:
        """Guest dequeue: the oldest work item.

        While no work is queued, blocks up to *timeout* — or only until
        :attr:`wakeups` differs from *seen* (default: its value on entry),
        so a wakeup that landed after the guest read *seen* is never slept
        through — and then raises ``queue.Empty``.
        """
        with self._lock:
            if not self._work:
                if seen is None:
                    seen = self.wakeups
                self._asleep += 1
                self._not_empty.wait_for(lambda: self._work or self.wakeups != seen, timeout)
                self._asleep -= 1
                if not self._work:
                    raise queue.Empty
            return self._pop(self._oldest_work())

    def get_batch(self, max_items: int, timeout: float | None = None,
                  seen: int | None = None, claim: Callable[[], bool] | None = None,
                  ) -> list[Any]:
        """Owner dequeue: up to *max_items* head items in one acquisition.

        The dequeue-batching primitive: FIFO order is preserved exactly, and
        a shutdown marker stays a batch barrier — at the head it is returned
        alone, and collection stops *before* a later one, so "everything
        queued before the marker still runs first" holds exactly as with
        item-at-a-time dequeue.  Raises ``queue.Empty`` if nothing arrived
        within *timeout* (or before :attr:`wakeups` moved past *seen*), or
        if *claim*, called with the lock held, refuses the head work item.
        """
        self._lock.acquire()
        try:
            items = self._items
            if not items:
                self._asleep += 1
                self._not_empty.wait_for(
                    lambda: items or (seen is not None and self.wakeups != seen), timeout
                )
                self._asleep -= 1
            if not items or (claim and items[0] is not _SHUTDOWN and not claim()):
                raise queue.Empty
            batch = [self._pop()]
            if batch[0] is not _SHUTDOWN:
                while (
                    len(batch) < max_items
                    and items
                    and items[0] is not _SHUTDOWN
                ):
                    batch.append(self._pop())
            return batch
        finally:
            self._lock.release()

    def steal_work(self) -> Any | None:
        """Remove and return the oldest queued work item for a ring thief.

        Returns None when the queue is closed (teardown owns the backlog
        then — ``drain_work`` and this method serialise on the queue lock,
        so an item is either stolen or cancelled, never both) or holds no
        work.
        """
        with self._lock:
            if self._closed or not self._work:
                return None
            return self._pop(self._oldest_work())

    # -------------------------------------------------------------- teardown

    def close(self) -> None:
        """Seal the queue: refuse further work, wake blocked posters so they
        fail fast.  Already-queued items are untouched and still drain."""
        with self._lock:
            self._closed = True
            self._not_full.notify_all()
            self._not_empty.notify_all()

    def drain_work(self) -> list[Any]:
        """Atomically remove and return every queued work item (teardown
        helper); shutdown markers stay queued."""
        with self._lock:
            items = self._items
            work = [i for i in items if i is not _SHUTDOWN]
            if work:
                markers = len(items) - len(work)
                items.clear()
                items.extend([_SHUTDOWN] * markers)
                self._work = 0
                self._not_full.notify_all()
            return work

    def qsize(self) -> int:
        return len(self._items)

    def work_count(self) -> int:
        """Queued *work* items (shutdown markers excluded) — the queue-depth
        sample.

        Lock-free: the counter is a single int maintained under the queue
        lock; reading it races only by one item, which a telemetry sample
        tolerates.
        """
        return self._work


class VirtualTarget(abc.ABC):
    """Common behaviour of all virtual targets.

    Subclasses provide the thread(s) that drain :attr:`_queue`.  The queue
    holds :class:`TargetRegion` instances only: :meth:`post` wraps a plain
    callable (an event posted by a higher layer) into one on admission.
    """

    #: The lifecycle counters :attr:`stats` reports, in its order.
    _STAT_KEYS: tuple[str, ...] = (
        "posted", "rejected", "caller_runs", "cancelled_on_shutdown",
        "barriers_ended_by_poll",
    )

    def __init__(
        self,
        name: str,
        *,
        queue_capacity: int | None = None,
        rejection_policy: str = "block",
    ) -> None:
        if rejection_policy not in REJECTION_POLICIES:
            raise ValueError(
                f"unknown rejection policy {rejection_policy!r}; "
                f"choose one of {', '.join(REJECTION_POLICIES)}"
            )
        self.name = name
        self.rejection_policy = rejection_policy
        self._queue = _TargetQueue(name, queue_capacity)
        self._members: dict[int, threading.Thread] = {}
        self._members_lock = threading.Lock()
        # Queue-depth sampling state: (trace-session generation, atomic
        # transition counter for that generation).  The counter is an
        # ``itertools.count`` so concurrent poster/worker threads never lose
        # a tick to a read-modify-write race.  See ``_trace_depth``.
        self._depth_tick: tuple[int, Any] = (-1, None)
        self._shutdown = threading.Event()
        self._tally = Tally(self._STAT_KEYS)

    def _bump(self, key: str) -> None:
        self._tally.local.counts[key] += 1

    # ----------------------------------------------------------- membership

    def contains(self, thread: threading.Thread | None = None) -> bool:
        """True if *thread* (default: the calling thread) belongs to this
        target's execution environment (Algorithm 1 line 6).

        Lock-free on purpose: this check sits on every dispatch (the
        affinity router consults it before posting), and a CPython dict
        lookup is a single C-level operation the GIL keeps consistent
        against the guarded mutations in ``_enter_member``/``_exit_member``.
        A hit is confirmed against the thread object: a new thread may
        reuse the ident of a member that ended without leaving.
        """
        member = self._members.get(threading.get_ident() if thread is None else thread.ident)
        return member is not None and member is (thread or threading.current_thread())

    def _enter_member(self, thread: threading.Thread | None = None) -> None:
        """A thread named explicitly, even the caller, joins as a guest:
        only an omitted *thread* makes this the caller's current_target()."""
        if thread is None:
            _thread_target.value = self
        thread = thread or threading.current_thread()
        with self._members_lock:
            self._members[thread.ident] = thread

    def _exit_member(self, thread: threading.Thread | None = None) -> None:
        thread = thread or threading.current_thread()
        with self._members_lock:
            if self._members.get(thread.ident) is thread:
                del self._members[thread.ident]
        if thread is threading.current_thread() and current_target() is self:
            _thread_target.value = None

    @property
    def member_count(self) -> int:
        with self._members_lock:
            return len(self._members)

    # ------------------------------------------------------------- lifecycle

    @property
    def alive(self) -> bool:
        return not self._shutdown.is_set()

    @abc.abstractmethod
    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work; drain the backlog (``wait=True``) or cancel
        it (``wait=False``) so no queued region is ever silently stranded."""

    def _enter_shutdown(self) -> bool:
        """Flag the target shut down and seal its queue; False if it already
        was.  Sealing happens in *both* shutdown modes, under the queue
        lock: a poster past the ``_shutdown`` check and still at the
        ``"post"`` seam raises :class:`TargetShutdownError` like every other
        late post instead of landing behind the shutdown markers, where no loop
        will ever look.  Work queued before the seal still drains.
        """
        if self._shutdown.is_set():
            return False
        self._shutdown.set()
        self._queue.close()
        return True

    def _cancel_pending(self, reason: BaseException | None = None) -> int:
        """Atomically pull every queued region and cancel it.

        Each transitions to ``CANCELLED`` with *reason* (default: a
        :class:`TargetShutdownError`), so every waiter —
        ``region.wait()/result()``, ``wait_tag``, ``await`` logical
        barriers — unblocks promptly with a diagnosable error instead of
        deadlocking on work that will never run.  Shutdown markers keep
        their place.  Returns the number of regions cancelled.
        """
        cancelled = 0
        if reason is None:
            reason = TargetShutdownError(self.name)
        for region in self._queue.drain_work():
            if region.cancel(reason):
                cancelled += 1
                self._bump("cancelled_on_shutdown")
        return cancelled

    # --------------------------------------------------------------- posting

    def post(
        self,
        item: TargetRegion | Callable[[], Any],
        *,
        timeout: float | None = None,
    ) -> bool:
        """Enqueue a region for asynchronous execution (Algorithm 1 line 8:
        ``E.post(B)``).

        A plain callable is wrapped here, once, into a :class:`TargetRegion`
        named by its qualified name, whose failure is logged (it has no
        waiter); past this point every layer sees regions only.  When the
        target has a bounded queue and it is full, the configured
        :attr:`rejection_policy` decides: ``block`` parks the caller (up to
        *timeout* seconds, then :class:`QueueFullError`), ``reject`` raises
        :class:`QueueFullError` immediately, ``caller_runs`` executes the
        region synchronously in the posting thread.  Returns True if it was
        queued, False if ``caller_runs`` already disposed of it here.
        """
        q = self._queue
        if q._closed:
            raise TargetShutdownError(self.name)
        region = item
        if not isinstance(item, TargetRegion):  # the one admission check
            region = TargetRegion(
                item, name=getattr(item, "__qualname__", None) or type(item).__name__
            )
            region.add_done_callback(partial(_log_unhandled, self.name))
        hooks = _inj.hooks
        if hooks is not None:
            hooks.fire("post", self.name)
        # Timestamp *before* the (possibly blocking) put: the consumer may
        # dequeue the instant the region lands, and its DEQUEUE stamp must
        # sort after this ENQUEUE stamp on the shared perf_counter_ns clock.
        session = _SESSION
        enq_ts = now_ns() if session.enabled else 0
        policy = self.rejection_policy
        if not q.put(region, policy == "block", timeout, True):
            runs_here = policy == "caller_runs"
            if runs_here and region._finished:
                # A cancel (or shutdown) won the race while this poster
                # was between the seam point and the full-queue verdict:
                # the region is already terminal.  Emitting REJECT and
                # bumping caller_runs here would claim a queue bypass
                # for work that never ran — drop the corpse silently,
                # exactly as a dequeue of a withdrawn region does.
                return False
            self._bump("caller_runs" if runs_here else "rejected")
            if session.enabled:
                # The REJECT marker (arg: policy) is what lets a trace
                # verifier tell a legitimate queue-less caller_runs
                # execution apart from a lost dequeue.
                session.emit(
                    EventKind.REJECT, target=self.name, region=region.seq,
                    name=region._trace_name(session.generation), arg=policy,
                )
            if not runs_here:
                raise QueueFullError(self.name, q.capacity, policy)
            self._dispatch(region, dequeued=False)
            return False
        if session.enabled:
            session.emit(
                _ENQUEUE, target=self.name, region=region.seq,
                name=region._trace_name(session.generation), ts=enq_ts,
            )
            self._trace_depth(session)
        return True

    def wakeup(self) -> None:
        """Make every member pumping this target's queue (:meth:`pump_until`)
        re-check its predicate now instead of at its next poll.  Queues
        nothing."""
        self._queue.wakeup()

    @property
    def pending(self) -> int:
        """Approximate number of queued items (shutdown markers included).

        Prefer :meth:`work_count` for diagnostics: a shutdown marker waiting
        for the loop that owns it rides this figure, so a target can
        legitimately show ``pending > 0`` while owing no work to anyone.
        """
        return self._queue.qsize()

    def work_count(self) -> int:
        """Queued *work* items, shutdown markers excluded.

        This is the honest backlog figure: zero means the target owes
        nothing, even if shutdown markers are still physically in the queue.
        Every target kind keeps its backlog on this one queue, so this is
        also the ``QUEUE_DEPTH`` trace sample.
        """
        return self._queue._work

    @property
    def queue_capacity(self) -> int | None:
        return self._queue.capacity

    @property
    def high_water_mark(self) -> int:
        """Deepest the work queue has ever been (backpressure telemetry)."""
        return self._queue.high_water

    @property
    def stats(self) -> dict[str, int]:
        """Snapshot of lifecycle counters (plus the high-water mark)."""
        snap = self._tally.snapshot()
        snap["posted"] += self._queue.posted  # _tally: a remote lane's direct ships
        snap["high_water"] = self._queue.high_water
        return snap

    # ------------------------------------------------------------ processing

    #: Whether member threads can drain the queue cooperatively (the
    #: ``await`` logical barrier).  Adapters wrapping foreign event loops
    #: that cannot be re-entered (e.g. asyncio) set this to False;
    #: :meth:`pump_until` then refuses with guidance instead of deadlocking.
    supports_pumping: bool = True

    #: Whether Algorithm 1's inline elision (lines 6-7) may apply: a thread
    #: that *belongs* to the target runs the block synchronously instead of
    #: posting it.  Thread-backed targets share the poster's address space,
    #: so elision is a pure optimization; process-backed targets set this to
    #: False because their execution environment is a different process —
    #: running the block in the encountering thread would silently change
    #: which address space the block's side effects land in.  The affinity
    #: router in ``invoke_target_block`` consults this before ``contains()``.
    supports_inline: bool = True

    #: Whether a default-mode dispatch first offers its region to
    #: ``_ship_on_caller`` (remote lanes); others pay one attribute read.
    ships_on_caller: bool = False

    #: Target taxonomy for diagnostics: ``worker`` (thread pool), ``edt``
    #: (event-dispatch thread), ``process`` (worker processes), ``cluster``
    #: (socket-connected remote workers), ``asyncio`` (foreign-loop
    #: adapter).  Surfaced by :meth:`describe` and
    #: ``PjRuntime.diagnostic_dump`` so mixed deployments read at a glance.
    kind: str = "virtual"

    #: How stale :meth:`pump_until` lets its predicate get (seconds) when no
    #: :meth:`wakeup` cuts a wait short.  Class attribute so tests can
    #: lengthen it to prove a barrier ended on its wakeup, not its poll.
    _barrier_poll = 0.05

    @property
    def pool_size(self) -> int:
        """Number of execution lanes (threads or processes) this target owns."""
        return self.member_count

    @property
    def restart_count(self) -> int:
        """Remote workers reopened after a crash or a missed heartbeat
        (0 for thread-backed targets)."""
        return 0

    def process_one(self, timeout: float | None = None, *, _seen: int | None = None) -> bool:
        """Run one queued item in the calling thread.

        Returns True if a work item ran; False if none arrived within
        *timeout* seconds or a :meth:`wakeup` cut the wait short.  This is
        the primitive behind the ``await`` logical barrier: *"processing
        another runnable task in Pyjama's task queue"* (paper §IV-B).  The
        caller is a guest of the queue: a shutdown marker stays queued for
        the loop that owns it, and the guest blocks on the queue condition
        behind it rather than spinning.  *_seen* is :meth:`pump_until`'s:
        the wakeup count it read before checking its predicate.
        """
        try:
            region = self._queue.get(timeout, _seen)
        except queue.Empty:
            return False
        self._dispatch(region)
        return True

    def _serve_queue(
        self,
        run: Callable[[TargetRegion], None],
        *,
        batch_max: int = 1,
        poll: float | None = None,
        idle: Callable[[], bool] | None = None,
        ready: Callable[[], bool] | None = None,
        claim: Callable[[], bool] | None = None,
    ) -> None:
        """The loop-owner side of the queue, and the one place the shutdown
        marker is acted on: dequeue FIFO and *run* each work item until a
        marker (shutdown queues one per loop) ends exactly the loop that
        dequeued it.  ``get_batch`` returns a marker alone, so everything
        queued before it has already run.  *ready* is consulted
        before every dequeue (False ends the loop without taking an item)
        and then a :meth:`wakeup` ends the wait; a work item *claim* refuses
        stays queued.  With *poll*, an empty queue calls *idle* every *poll*
        seconds, and a True result (it found work elsewhere) rechecks the
        queue at once.
        """
        q = self._queue
        get_batch = q.get_batch
        eager = False
        seen = None
        while True:
            if ready is not None:
                seen = q.wakeups  # read before ready()
                if not ready():
                    return
            try:
                batch = get_batch(batch_max, 0.0 if eager else poll, seen, claim)
            except queue.Empty:
                eager = idle()
                continue
            eager = False
            for item in batch:
                if item is _SHUTDOWN:
                    return
                run(item)

    def _trace_depth(self, session: "_obs.TraceSession") -> None:
        """Emit a sampled ``QUEUE_DEPTH`` event (caller checked enabled).

        Samples every :data:`QUEUE_DEPTH_SAMPLE_STRIDE`-th enqueue/dequeue
        per target and recording window; the first transition of a window
        always emits so short traces still carry depth data.  The transition
        counter is an ``itertools.count`` whose ``next()`` is atomic under
        the GIL — racing poster/worker threads each draw a distinct tick
        instead of losing increments to a read-modify-write race.
        """
        gen = session.generation
        g, counter = self._depth_tick
        if g != gen:
            counter = itertools.count()
            # Two threads racing a window change may both publish; the loser
            # at worst re-emits one window-opening sample, never skews ticks.
            self._depth_tick = (gen, counter)
        if next(counter) % QUEUE_DEPTH_SAMPLE_STRIDE == 0:
            session.emit(_QUEUE_DEPTH, target=self.name, arg=self._queue._work)

    def _dispatch(self, region: TargetRegion, *, dequeued: bool = True) -> None:
        hooks = _inj.hooks
        if hooks is not None:
            hooks.fire("dispatch", self.name)
        session = _SESSION
        if not session.enabled:
            if not region._finished:  # the corpse check, as below
                region.run()  # a region captures its own exceptions
            return
        label = region._trace_name(session.generation)
        if dequeued:
            session.emit(_DEQUEUE, target=self.name, region=region.seq, name=label)
            self._trace_depth(session)
        if region._finished:
            # Withdrawn (cancelled) while queued, or cancelled mid
            # caller_runs handoff: discard the corpse without touching it.
            # An EXEC span here would lie, so none is emitted — and the
            # untraced path makes the same check, rather than leave corpse
            # safety resting on ``run()``'s internal state guard alone.
            return
        self._run_traced(session, region, label)

    def _run_traced(
        self, session: "_obs.TraceSession", region: TargetRegion, label: str | None,
    ) -> None:
        """The execution span: ``EXEC_BEGIN``, run *region* here,
        ``EXEC_END`` with the truthful outcome.  Dequeued and caller-runs
        regions (:meth:`_dispatch`) and Algorithm 1's inline elision
        (``PjRuntime.invoke_target_block``) both execute through it; *label*
        is None when an earlier event of *region* carried its name."""
        seq = region.seq
        session.emit(_EXEC_BEGIN, target=self.name, region=seq, name=label)
        try:
            region.run()  # a region captures its own exceptions
        finally:
            # The region's terminal state is the ground truth: a body that
            # raised is "failed", and a cancel that won the race against the
            # caller's corpse check (run() then no-opped) is "cancelled" —
            # never a fabricated "completed".
            if region._state is _CANCELLED:
                outcome = "cancelled"
            elif region._exception is not None:
                outcome = "failed"
            else:
                outcome = "completed"
            session.emit(
                _EXEC_END, target=self.name, region=seq, name=label, arg=outcome,
            )

    def pump_until(
        self,
        predicate: Callable[[], bool],
        *,
        timeout: float | None = None,
        region: int | None = None,
        name: str = "pump_until",
    ) -> None:
        """Process queued work in the calling thread until *predicate* holds.

        The logical barrier of Algorithm 1 (lines 13-16), and the only loop
        of its kind: ``await``, a member thread's ``wait(tag)`` and the modal
        dialog end up here too.  The calling thread must belong to this
        target and the target must be pumpable.  ``_barrier_poll`` only
        bounds how stale the predicate can get; a caller that wants out the
        moment it holds arranges a :meth:`wakeup`, and a barrier that
        nevertheless ended on its poll is counted in
        ``stats["barriers_ended_by_poll"]``.  Past *timeout* the barrier
        raises :class:`AwaitTimeoutError` with this target's diagnostics.  *region* and *name* identify it in the trace
        and in that error, nothing else.
        """
        if not self.contains():
            raise RuntimeStateError(
                f"thread {threading.current_thread().name!r} does not belong to "
                f"virtual target {self.name!r} and cannot pump its queue"
            )
        if not self.supports_pumping:
            # Pumping a foreign loop (asyncio) from inside one of its
            # callbacks would re-enter it: fail with guidance instead.
            raise RuntimeStateError(
                f"virtual target {self.name!r} wraps an event loop that cannot be "
                f"pumped re-entrantly (barrier {name!r}); use nowait plus the "
                "adapter's as_future()/completion hooks, or wait elsewhere"
            )
        session = _SESSION
        ident = {"target": self.name, "region": region, "name": name}
        if session.enabled:
            session.emit(EventKind.BARRIER_ENTER, **ident)
        # Deadline math uses time.monotonic() (the runtime-wide convention for
        # deadlines); only trace timestamps use the perf_counter_ns clock.
        deadline = None if timeout is None else time.monotonic() + timeout
        q = self._queue
        poll = self._barrier_poll
        # Read before the predicate: a wakeup owed to a completion the
        # predicate has not seen yet then differs from ``seen`` and ends the
        # next slice at once.
        seen = q.wakeups
        polled = False
        try:
            while not predicate():
                step = poll
                if deadline is not None:
                    step = min(poll, deadline - time.monotonic())
                    if step <= 0:
                        raise AwaitTimeoutError(
                            f"logical barrier {name!r} on target {self.name!r} "
                            f"exceeded its {timeout}s deadline",
                            self.describe(),
                        )
                ran = self.process_one(timeout=step, _seen=seen)
                if ran and session.enabled:
                    # Barrier-mode steal: the pumping thread took work from
                    # its own target, so victim and thief coincide (contrast
                    # ring stealing, where a sibling lane is the thief).
                    self._trace_steal(session, self, "barrier", region=region, name=name)
                before, seen = seen, q.wakeups
                polled = not ran and seen == before
            if polled:
                # The predicate came true during a slice that nothing cut
                # short: the barrier outlived its condition by up to a poll.
                self._bump("barriers_ended_by_poll")
        finally:
            if session.enabled:
                session.emit(EventKind.BARRIER_EXIT, **ident)

    def _trace_steal(
        self,
        session: "_obs.TraceSession",
        thief: "VirtualTarget",
        mode: str,
        *,
        region: int | None = None,
        name: str | None = None,
    ) -> None:
        """Emit ``PUMP_STEAL``: the calling lane of *thief* ran work queued
        on this target (*mode*: ``barrier`` or ``steal``)."""
        session.emit(
            EventKind.PUMP_STEAL, target=self.name, region=region, name=name,
            arg={
                "victim": self.name,
                "thief": thief.name,
                "lane": threading.current_thread().name,
                "mode": mode,
            },
        )

    def describe(self) -> str:
        """One-line diagnostic: queue depth, capacity, members, counters."""
        with self._members_lock:
            members = sorted(t.name for t in self._members.values())
        stats = self.stats
        cap = "unbounded" if self._queue.capacity is None else str(self._queue.capacity)
        return (
            f"target {self.name!r} ({type(self).__name__}) kind={self.kind} "
            f"alive={self.alive} pool={self.pool_size} "
            # work_count, not pending: a shutdown marker nobody consumes
            # would otherwise show an idle target as queued=1 forever.
            f"restarts={self.restart_count} queued={self.work_count()} capacity={cap} "
            f"high_water={stats['high_water']} posted={stats['posted']} "
            f"rejected={stats['rejected']} caller_runs={stats['caller_runs']} "
            f"cancelled_on_shutdown={stats['cancelled_on_shutdown']} "
            f"barriers_ended_by_poll={stats['barriers_ended_by_poll']} "
            f"members={members}"
            f"{self._describe_extra()}"
        )

    def _describe_extra(self) -> str:
        """Kind-specific suffix for :meth:`describe` (leading space included).

        Subclasses with state the generic line cannot know about — e.g. a
        cluster target's endpoints and connection counts — append it here
        instead of overriding (and drifting from) the whole format.
        """
        return ""

    def drain(self) -> int:
        """Process queued items in the calling thread until the queue is empty.

        Returns the number of real work items executed.  Used by tests,
        manually pumped EDTs and OpenMP team barriers.  It is
        :meth:`process_one` repeated, so the caller is a guest — a shutdown
        marker stays queued for the loop that owns it — and a target that
        refuses pumping refuses this too.
        """
        count = 0
        while True:
            count += self.process_one(0)
            if not self._queue._work:
                return count

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r} members={self.member_count}>"


class WorkerTarget(VirtualTarget):
    """A worker virtual target: a pool of background threads.

    Created by ``virtual_target_create_worker(tname, m)`` (paper Table II).
    The pool has *max_threads* lanes for its whole life.  Two scheduling
    policies (docs/TUNING.md) are off unless asked for:

    * ``steal=True`` — idle lanes take work from sibling targets in the
      runtime's :class:`~repro.policy.StealRing` (and expose their own queue
      to it); otherwise the lanes block on their own queue.
    * ``batch_max>1`` — each queue acquisition drains up to ``batch_max``
      items back-to-back, amortising the dispatch fast-path for small
      regions.  1 (the default) is item-at-a-time.
    """

    kind = "worker"

    #: Idle-poll interval (seconds) of a stealing lane: how long it waits on
    #: its own empty queue before scanning the ring for a victim.  Class
    #: attribute so tests can shrink it without touching the constructor.
    _steal_poll = 0.01

    def __init__(
        self,
        name: str,
        max_threads: int,
        *,
        queue_capacity: int | None = None,
        rejection_policy: str = "block",
        steal: bool = False,
        batch_max: int = 1,
    ) -> None:
        if max_threads < 1:
            raise ValueError(f"worker target needs at least 1 thread, got {max_threads}")
        if batch_max < 1:
            raise ValueError(f"batch_max must be >= 1, got {batch_max}")
        super().__init__(
            name, queue_capacity=queue_capacity, rejection_policy=rejection_policy
        )
        self.max_threads = max_threads
        self.batch_max = batch_max
        self.steal_enabled = steal
        self._steal_ring = None  # attached by PjRuntime.register_target
        self._threads = [
            threading.Thread(
                target=self._worker_loop, name=f"pyjama-{name}-{i}", daemon=True
            )
            for i in range(max_threads)
        ]
        for t in self._threads:
            t.start()

    @property
    def pool_size(self) -> int:
        return self.max_threads

    # ------------------------------------------------------------ steal ring

    def join_ring(self, ring) -> None:
        """Enroll in *ring* as both thief and victim (idempotent)."""
        self._steal_ring = ring
        ring.register(self)

    def leave_ring(self) -> None:
        ring, self._steal_ring = self._steal_ring, None
        if ring is not None:
            ring.unregister(self)

    def steal_item(self):
        """One queued work item for a ring thief (None if nothing stealable,
        or once shutdown sealed the queue)."""
        return self._queue.steal_work()

    def _try_steal(self) -> bool:
        """Steal and run one sibling item; True if work was actually done.

        The stolen item executes through the *victim's* dispatch path, so its
        ``DEQUEUE``/``EXEC`` events land on the victim target — the target
        its ``ENQUEUE`` named — and every lifecycle invariant holds.  The
        thief appears only in the ``PUMP_STEAL`` attribution payload.
        """
        ring = self._steal_ring
        if ring is None or self._shutdown.is_set():
            return False
        stolen = ring.steal(self)
        if stolen is None:
            return False
        victim, region = stolen
        session = _SESSION
        if session.enabled:
            victim._trace_steal(session, self, "steal", region=region.seq,
                                name=region._trace_name(session.generation))
        victim._dispatch(region)
        return True

    # ------------------------------------------------------------- dispatch

    def _worker_loop(self) -> None:
        self._enter_member()
        try:
            # A stealing lane waits only ``_steal_poll`` on its own empty
            # queue before scanning the ring for a victim; the others block.
            self._serve_queue(
                self._dispatch,
                batch_max=self.batch_max,
                poll=self._steal_poll if self.steal_enabled else None,
                idle=self._try_steal,
            )
        finally:
            self._exit_member()

    def _describe_extra(self) -> str:
        bits = []
        if self.batch_max != 1:
            bits.append(f"batch_max={self.batch_max}")
        if self.steal_enabled:
            bits.append("steal=on")
        return " " + " ".join(bits) if bits else ""

    def shutdown(self, wait: bool = True) -> None:
        """Stop the pool.

        ``wait=True`` drains: the backlog queued before shutdown still runs
        (the shutdown markers queue FIFO behind it) and the member threads
        are joined.  ``wait=False`` cancels: every still-queued region
        transitions to ``CANCELLED`` (failing its waiters fast) and the
        threads are left to exit on their own.  The target leaves its steal
        ring so siblings stop considering it a victim.
        """
        if not self._enter_shutdown():
            return
        self.leave_ring()
        if not wait:
            self._cancel_pending()
        for _ in self._threads:
            self._queue.put_shutdown()
        if wait:
            for t in self._threads:
                if t is not threading.current_thread():
                    t.join()


class EdtTarget(VirtualTarget):
    """An event-dispatch-thread virtual target.

    Exactly one thread belongs to it.  Two ways to set it up:

    * :meth:`register_current_thread` — the paper's
      ``virtual_target_register_edt``: the calling thread (e.g. a GUI
      framework's dispatch thread) becomes the member and must drive the
      queue itself: :meth:`run_forever`, or by hand with :meth:`drain` /
      :meth:`pump_until` (the logical barrier ``await`` itself uses).
    * :meth:`start_in_thread` — convenience used by the event-loop substrate
      and by headless tests: spawn a dedicated daemon thread that runs
      :meth:`run_forever`.
    """

    kind = "edt"

    #: How long ``shutdown(wait=True)`` waits for the loop to acknowledge the
    #: shutdown marker before giving up with a diagnostic (class-level so
    #: tests can shrink it without touching the shutdown signature).
    _shutdown_ack_timeout = 5.0

    @property
    def pool_size(self) -> int:
        return 1

    def __init__(
        self,
        name: str,
        *,
        queue_capacity: int | None = None,
        rejection_policy: str = "block",
    ) -> None:
        super().__init__(
            name, queue_capacity=queue_capacity, rejection_policy=rejection_policy
        )
        self._edt_thread: threading.Thread | None = None
        self._loop_started = threading.Event()
        self._stopped = threading.Event()

    # ------------------------------------------------------------- binding

    def register_current_thread(self) -> "EdtTarget":
        if self._edt_thread is not None:
            raise RuntimeStateError(
                f"EDT target {self.name!r} is already bound to {self._edt_thread.name!r}"
            )
        self._edt_thread = threading.current_thread()
        self._enter_member()
        return self

    def start_in_thread(self) -> "EdtTarget":
        if self._edt_thread is not None:
            raise RuntimeStateError(f"EDT target {self.name!r} is already bound")
        started = threading.Event()

        def loop() -> None:
            self._edt_thread = threading.current_thread()
            self._enter_member()
            started.set()
            try:
                self.run_forever()
            finally:
                self._exit_member()

        t = threading.Thread(target=loop, name=f"pyjama-edt-{self.name}", daemon=True)
        t.start()
        started.wait()
        return self

    @property
    def edt_thread(self) -> threading.Thread | None:
        return self._edt_thread

    # ------------------------------------------------------------ event loop

    def run_forever(self) -> None:
        """Drive the event loop until :meth:`shutdown` is called.

        Must run on the bound thread.
        """
        self._require_edt()
        self._loop_started.set()
        self._serve_queue(self._dispatch)
        self._stopped.set()

    def _require_edt(self) -> None:
        if threading.current_thread() is not self._edt_thread:
            raise RuntimeStateError(
                f"this operation must run on the EDT of target {self.name!r}"
            )

    def shutdown(self, wait: bool = True) -> None:
        """Stop the dispatch loop.

        ``wait=True`` lets already-queued events/regions run before the loop
        exits, then waits for loop acknowledgement; ``wait=False`` cancels
        the backlog so waiters fail fast.  A *registered* EDT whose loop was
        never driven (``run_forever`` not called) is not waited on at all —
        its liveness is the owning application's business, and blocking 5 s
        on a loop that never started was pure stall.
        """
        if not self._enter_shutdown():
            return
        if not wait:
            self._cancel_pending()
        self._queue.put_shutdown()
        if wait and self._edt_thread is not None:
            if self._edt_thread is threading.current_thread():
                return
            if not self._loop_started.is_set():
                # The loop never ran; nothing will ever acknowledge.
                return
            if not self._stopped.wait(timeout=self._shutdown_ack_timeout):
                # A wedged EDT (handler stuck in a syscall, deadlocked on a
                # lock, ...) must not "shut down" silently: the marker was
                # queued but never consumed, so say what we know and let the
                # caller decide — the thread is theirs, we cannot kill it.
                _logger.warning(
                    "EDT target %r did not acknowledge shutdown within %.1fs; "
                    "its dispatch loop appears wedged: %s",
                    self.name, self._shutdown_ack_timeout, self.describe(),
                )
