"""`RemoteLaneTarget`: the one virtual target behind every remote backend.

A remote-backed target keeps the name-based directive surface of
:class:`~repro.core.targets.WorkerTarget` (``virtual(name)``, default/
``nowait``/``name_as``+``wait``/``await``, ``timeout=``), the same
bounded-queue backpressure policies and the same shutdown covenant
(``wait=True`` drains, ``wait=False`` cancels, nothing is ever silently
stranded) — but region bodies execute on **remote workers**, outside this
interpreter's GIL.  That is the "device layer" move of the OpenMP-cluster
line of work (arXiv:2207.05677, 2205.10656): a local and a remote device
are one device abstraction with a pluggable transport.  Here the
abstraction is this class and the transport is a :class:`RemoteLane`
subclass: :class:`~repro.dist.process_target.ProcessTarget` plugs in a
spawned child process behind two pipes,
:class:`~repro.cluster.target.ClusterTarget` a slot on a TCP worker agent
behind two framed sockets.

Architecture (per target)::

    poster threads ──post()──▶ _TargetQueue (inherited: capacity, policies)
         │                         │  (shared: pull = least-loaded routing)
         │       ┌─────────────────┼─────────────────┐
         │  shipper thread 0   shipper thread 1   ...  (one per lane)
         └─ default mode, empty queue, free lease: the caller ships itself
                 │ SyncMsg / TaskMsg / ResultMsg over the lane's task channel
                 │ PingMsg/PongMsg + CancelMsg over the lane's ctrl channel
        remote worker 0    remote worker 1    ...  (repro.dist.worker loops)

Each lane owns one remote worker, one parent-side *shipper* thread that
opens, pings and retires it, and one *lease* (:class:`RemoteLane`).  The
shipper pulls the next item off the shared queue, serializes the
region's ``(body, args, kwargs)`` (:func:`~repro.dist.wire.dumps_parts`: a
large payload becomes :class:`~repro.dist.wire.Parts`, an attachment the
channel moves beside the task message, in shared memory or by
scatter/gather, not a pickle inside the message's pickle), ships it, and
waits for the result in a poll loop that simultaneously watches for: the
result, worker death
(→ :class:`~repro.core.errors.WorkerCrashedError` to the waiter, never a
hang), a parent-side cancellation (→ forwarded as a
:class:`~repro.dist.wire.CancelMsg`; a worker that ignores it past
``cancel_grace`` seconds is terminated and the lane reclaimed), and hard
shutdown.  Results and exceptions are delivered through
:meth:`~repro.core.region.TargetRegion.fulfill`, i.e. the normal
region-completion path, so waiters, tags, callbacks and the ``await``
logical barrier cannot tell a remote region from a thread region.  While
the queue stays empty the shipper checks its idle lane every
``heartbeat_interval`` (:meth:`RemoteLaneTarget._idle_check`) and reopens
a dead one before it takes the next item.

Inline elision (Algorithm 1 lines 6-7) **never** applies here:
``supports_inline`` is False.  Elision is an optimization only when the
encountering thread *is* the execution environment — it shares the target's
address space and thread affinity, so running the block synchronously is
indistinguishable from posting it.  A remote target's execution
environment is a different address space (or host); eliding would silently
move the block's side effects (and its GIL contention) back into the
parent, so the affinity router in ``invoke_target_block`` always takes the
posted path.

Tracing: the parent records SUBMIT/ENQUEUE/DEQUEUE as usual; EXEC spans are
recorded **in the worker**, shipped back with each result, re-stamped onto
the parent's clock (:mod:`repro.dist.remote_obs`, offset from the two-round
clock handshake run when a lane opens) and attributed to a
``<target>[w<i>]`` track — Chrome/Perfetto shows one row per worker, with
submit→exec flow arrows crossing tracks.
"""

from __future__ import annotations

import logging
import threading
import time
from functools import partial
from typing import Any, Callable, Sequence

from ..core import injection as _inj
from ..core.errors import (
    RuntimeStateError,
    SerializationError,
    TargetShutdownError,
    WorkerCrashedError,
)
from ..core.region import TargetRegion
from ..core.targets import VirtualTarget
from ..obs import EventKind
from ..obs import recorder as _obs
from ..obs.events import now_ns
from . import wire
from .remote_obs import estimate_offset_ns, merge_worker_events, worker_track

__all__ = ["RemoteLane", "RemoteLaneTarget"]

_logger = logging.getLogger(__name__)

#: Poll tick of the result-wait loop: bounds crash/cancel/shutdown reaction
#: latency without busy-waiting.
_POLL_TICK = 0.05


class RemoteLane:
    """One lane of a remote-backed target: two channels + accounting.

    ``task`` and ``ctrl`` are the parent-side ends of the lane's two
    channels — anything with the ``send/recv/poll/close`` duck type of a
    ``multiprocessing.Connection`` (pipes, or a
    :class:`~repro.cluster.transport.Transport`); both are None while the
    lane is down.  This base class owns the accounting and every
    channel-generic operation; a subclass is a *strategy* for what sits
    behind the channels.

    Slot interface
    --------------
    What :class:`RemoteLaneTarget` consumes (a subclass supplies the
    starred ones): the fields ``index``/``disabled``/``pid`` and
    ``unanswered_pings`` (pings sent since the last pong);
    ``connected`` (a worker is attached, live or not yet reaped);
    ``open()``\\* (attach a worker and set ``task``/``ctrl`` — on any
    failure the caller runs ``terminate()`` + ``reap()``, so partial state
    is fine); ``is_alive()``\\* (the worker is believed live);
    ``exit_label()``\\* (human-readable cause of death for a log line);
    ``terminate()``\\* (hard-kill the worker / tear the lane — crash
    semantics follow); ``stop()`` (graceful :class:`~repro.dist.wire.StopMsg`
    on both channels); ``reap()`` (drop a dead lane's channels, returning
    the worker's exit code where one exists); ``drain_control()``,
    ``send_ping()``, ``send_cancel(seq)``; and the text facts ``noun`` and
    ``endpoint`` used in log, error and trace labels.

    One lease
    ---------
    Every operation above runs with the lane's ``lease`` held, so channels
    stay single-consumer (a ``TcpTransport`` reassembles frames in an
    unlocked buffer).  The shipper (``thread``) holds it per step, never
    while it waits on the queue; a default-mode caller holds it to ship
    its own region.  ``handback`` is a region a caller left running at its
    deadline, with its cancel time; the shipper finishes it first.

    One attachment in flight
    ------------------------
    The task channel strictly alternates one task message and its result,
    and the lease is held from a region's send to its result's delivery.
    So at most **one attachment per direction per lane**
    exists at a time, and a received ``blob`` is read
    (:func:`~repro.dist.wire.loads`) before the next ``send`` or ``recv``
    on the channel.  The shared-memory arenas of a pipe lane
    (:mod:`repro.dist.arena`) hold exactly one payload each and lend the
    receiver a view of it on that footing; a change that pipelines regions
    on a lane must first give them a ring or a free list.
    """

    __slots__ = (
        "index", "target_name", "task", "ctrl", "pid",
        "clock_offset", "spawns", "disabled", "unanswered_pings", "thread",
        "lease", "handback",
    )

    #: What log and error text calls this lane.
    noun = "worker"
    #: ``host:port`` the worker lives at; empty for a local child process.
    endpoint = ""
    #: Seconds a fresh worker has to come up and answer clock probe 1; each
    #: strategy sets its own.
    open_timeout: float

    def __init__(self, index: int, target_name: str) -> None:
        self.index = index
        self.target_name = target_name
        self.task: Any = None
        self.ctrl: Any = None
        self.pid: int | None = None  # from the clock handshake
        self.clock_offset = 0
        self.spawns = 0          # total open attempts (first + restarts)
        self.disabled = False
        self.unanswered_pings = 0
        self.thread: threading.Thread | None = None
        self.lease = threading.Lock()
        self.handback: tuple[TargetRegion, float] | None = None

    @property
    def restarts(self) -> int:
        """Open attempts beyond the lane's first."""
        return max(0, self.spawns - 1)

    @property
    def where(self) -> str:
        """`` (host:port)`` suffix for labels; empty for a local child."""
        return f" ({self.endpoint})" if self.endpoint else ""

    @property
    def connected(self) -> bool:
        """A worker is attached to this lane (live or not-yet-reaped)."""
        return self.task is not None

    # ------------------------------------------------------- strategy hooks

    def open(self) -> None:
        raise NotImplementedError

    def is_alive(self) -> bool:
        raise NotImplementedError

    def exit_label(self) -> str:
        raise NotImplementedError

    def terminate(self) -> None:
        raise NotImplementedError

    # ----------------------------------------------------- channel-generic

    def drain_control(self) -> None:
        """Absorb pending ctrl-channel traffic; a pong answers every ping
        sent so far."""
        ctrl = self.ctrl
        if ctrl is None:
            return
        try:
            while ctrl.poll(0):
                if isinstance(ctrl.recv(), wire.PongMsg):
                    self.unanswered_pings = 0
        except (EOFError, OSError):
            pass  # torn: the next liveness check finds the corpse

    @staticmethod
    def _send(chan: Any, msg: Any) -> None:
        if chan is None:
            return
        try:
            chan.send(msg)
        except (OSError, ValueError):
            pass  # dead channel: liveness checks will catch the corpse

    def send_ping(self) -> None:
        self._send(self.ctrl, wire.PingMsg(now_ns()))
        self.unanswered_pings += 1

    def send_cancel(self, seq: int) -> None:
        self._send(self.ctrl, wire.CancelMsg(seq))

    def stop(self) -> None:
        """Graceful stop: drain sentinel on both channels, so the remote
        loops exit instead of seeing an abrupt EOF."""
        self._send(self.task, wire.StopMsg())
        self._send(self.ctrl, wire.StopMsg())

    def close_channels(self) -> None:
        for chan in (self.task, self.ctrl):
            if chan is not None:
                try:
                    chan.close()
                except OSError:
                    pass
        self.task = self.ctrl = None

    def reap(self) -> int | None:
        """Drop a dead lane's channels; returns the worker's exit code
        where the backend has one."""
        self.close_channels()
        return None


class RemoteLaneTarget(VirtualTarget):
    """A worker virtual target whose pool members are remote lanes.

    Owns everything a remote backend does on the parent side — shipping,
    health checks, restart budgets, cancellation and ``timeout=`` reclaim,
    result delivery, trace merge, shutdown — written once against the
    :class:`RemoteLane` interface.  Subclasses build the lanes and set the
    class-level facts below.  The one parameter shared by every backend,
    *heartbeat_interval*, is how often a shipper checks its idle lane.
    """

    supports_inline = False   # different address space: elision would lie
    supports_pumping = False  # no parent thread is ever a member
    ships_on_caller = True
    _STAT_KEYS = (*VirtualTarget._STAT_KEYS, "worker_crashes", "worker_restarts")

    #: Trace instants for a lane coming up / dying unasked / being retired.
    _EV_UP = EventKind.WORKER_SPAWN
    _EV_LOST = EventKind.WORKER_CRASH
    _EV_DOWN = EventKind.WORKER_EXIT

    # Supervision constants.  Class attributes, read by the shipper threads
    # the constructor starts, so a test patches one before it builds a target.
    #: Reopen budget *per lane*.  A lane whose worker keeps dying is disabled
    #: once the budget is spent; when the last lane disables, the backlog is
    #: failed (cancelled with the crash as reason) and the target refuses
    #: further posts.
    max_restarts = 3
    #: Pings in a row an idle worker may leave unanswered before it is
    #: declared wedged and replaced.
    heartbeat_misses = 3
    #: Seconds a worker may ignore a forwarded cancellation before it is
    #: terminated and the lane reclaimed (this is what makes ``timeout=``
    #: effective against a stuck worker).
    cancel_grace = 5.0

    def __init__(
        self,
        name: str,
        slots: Sequence[RemoteLane],
        *,
        queue_capacity: int | None,
        rejection_policy: str,
        heartbeat_interval: float,
    ) -> None:
        if heartbeat_interval <= 0:
            raise ValueError(
                f"heartbeat interval must be > 0, got {heartbeat_interval}"
            )
        super().__init__(
            name, queue_capacity=queue_capacity, rejection_policy=rejection_policy
        )
        self.heartbeat_interval = heartbeat_interval
        self._hard_stop = threading.Event()
        self._slots = list(slots)
        for slot in self._slots:
            slot.thread = threading.Thread(
                target=self._shipper_loop,
                args=(slot,),
                name=f"repro-{self.kind}-{name}-ship-{slot.index}",
                daemon=True,
            )
            slot.thread.start()

    # ------------------------------------------------------------ taxonomy

    @property
    def pool_size(self) -> int:
        return len(self._slots)

    @property
    def restart_count(self) -> int:
        return sum(slot.restarts for slot in self._slots)

    @property
    def worker_pids(self) -> list[int | None]:
        """Current worker pid of each lane (None while down) — diagnostics."""
        return [slot.pid if slot.connected else None for slot in self._slots]

    def process_one(self, timeout: float | None = None) -> bool:
        """Remote targets cannot run queued regions in the calling thread —
        the queue feeds *remote* workers, and executing a region here would
        silently move it back into this address space.  :meth:`drain` is
        refused with it; use ``shutdown(wait=True)`` to run a backlog down."""
        raise RuntimeStateError(
            f"{self.kind} target {self.name!r} cannot be pumped: its queue is "
            "drained by shipper threads feeding remote workers"
        )

    def _lane_label(self, slot: RemoteLane) -> str:
        return (
            f"{slot.noun} {slot.index} of {self.kind} target "
            f"{self.name!r}{slot.where}"
        )

    # ------------------------------------------------------------- lifecycle

    def shutdown(self, wait: bool = True) -> None:
        """Stop the pool.

        ``wait=True`` drains: the backlog ships to the workers FIFO, shipper
        threads are joined, each lane is stopped with a
        :class:`~repro.dist.wire.StopMsg` and reaped.  ``wait=False``
        cancels: the queued backlog is withdrawn (waiters fail fast with
        ``RegionCancelledError``), in-flight regions are cancelled across
        the channel and their lanes terminated, and nothing is joined —
        mirroring :class:`~repro.core.targets.WorkerTarget`.
        """
        if not self._enter_shutdown():
            return
        if not wait:
            # Busy shippers notice this within one poll tick, cancel and
            # terminate their workers, and fail the in-flight regions.
            self._hard_stop.set()
            self._cancel_pending()
        for _ in self._slots:
            self._queue.put_shutdown()
        if wait:
            for slot in self._slots:
                if slot.thread is not None and slot.thread is not threading.current_thread():
                    slot.thread.join()

    def _on_all_slots_disabled(self, cause: WorkerCrashedError) -> None:
        """Every lane exhausted its restart budget: fail the backlog.

        The no-lost-work covenant: queued regions are cancelled with the
        crash as reason (waiters see ``RegionCancelledError`` caused by
        :class:`WorkerCrashedError`), the queue closes, and further posts
        raise :class:`TargetShutdownError`.
        """
        if not self._enter_shutdown():
            return
        _logger.error(
            "%s target %r lost all %d lanes beyond their restart budgets; "
            "failing the backlog", self.kind, self.name, len(self._slots),
        )
        cancelled = self._cancel_pending(cause)
        if cancelled:
            _logger.error(
                "cancelled %d queued region(s) on dead %s target %r",
                cancelled, self.kind, self.name,
            )

    # ------------------------------------------------------------ lane pool

    def _open_lane(self, slot: RemoteLane) -> None:
        """Attach a worker to the lane and run the clock-sync handshake.

        Raises on any failure (spawn error, refused connect, version
        mismatch, handshake timeout); the caller owns restart accounting.
        """
        try:
            slot.open()
            # Two-round clock handshake.  Round 1 absorbs worker start-up
            # (fork and imports of a process worker, connection/thread warm-up
            # over TCP: its round trip is wildly asymmetric, so its midpoint
            # would be tens of ms off); round 2 probes the warm worker,
            # where the trip is pure channel latency, and sets the offset.
            task = slot.task
            for probe, budget in ((1, slot.open_timeout), (2, 5.0)):
                t0 = now_ns()
                task.send(wire.SyncMsg(t0))
                if not task.poll(budget):
                    raise RuntimeStateError(
                        f"{self._lane_label(slot)} did not answer clock "
                        f"probe {probe} within {budget}s"
                    )
                ack = task.recv()
                t1 = now_ns()
                if not isinstance(ack, wire.SyncAck):
                    raise RuntimeStateError(
                        f"{self._lane_label(slot)} sent {type(ack).__name__} "
                        "instead of the handshake ack"
                    )
        except BaseException:
            slot.terminate()
            slot.reap()
            raise
        slot.pid = ack.pid
        slot.clock_offset = estimate_offset_ns(t0, t1, ack.worker_ns)
        slot.unanswered_pings = 0
        self._emit_worker_event(slot, self._EV_UP, arg=slot.pid)

    def _ensure_worker(self, slot: RemoteLane) -> bool:
        """Make sure the lane has a live worker; (re)open within budget.

        Returns False when the lane is disabled or the target is shutting
        down — the shipper then stops consuming.
        """
        while True:
            if slot.disabled:
                return False
            # Gate on the *hard* stop, not _shutdown: a graceful
            # shutdown(wait=True) sets _shutdown while the backlog still has
            # to drain through live workers (reopening if needed).
            if self._hard_stop.is_set():
                return False
            if slot.connected:
                if slot.is_alive():
                    return True
                # Died between regions: account, clean up, reopen.
                _logger.warning(
                    "%s died idle (%s); reopening",
                    self._lane_label(slot), slot.exit_label(),
                )
                self._bump("worker_crashes")
                self._lane_down(slot, self._EV_LOST, "connection lost")
            if slot.spawns > self.max_restarts:
                break
            slot.spawns += 1
            if slot.spawns > 1:
                self._bump("worker_restarts")
            try:
                self._open_lane(slot)
            except Exception as exc:  # noqa: BLE001 - opening is best-effort
                _logger.warning(
                    "open attempt %d for %s failed: %r",
                    slot.spawns, self._lane_label(slot), exc,
                )
                continue
            return True
        slot.disabled = True
        _logger.error(
            "%s exceeded its restart budget (%d); disabling the lane",
            self._lane_label(slot), self.max_restarts,
        )
        if all(s.disabled for s in self._slots):
            self._on_all_slots_disabled(
                WorkerCrashedError(
                    self.name, slot.index,
                    detail=f"all {len(self._slots)} {self.kind} lanes "
                           f"exceeded max_restarts={self.max_restarts}",
                )
            )
        return False

    def _idle_check(self, slot: RemoteLane) -> bool:
        """``_serve_queue``'s idle hook: after each ``heartbeat_interval``
        of empty queue, collect the lane's pongs and ping it again.

        ``heartbeat_misses`` pings in a row unanswered mean the idle worker
        is wedged: it is terminated and reaped as a crashed one, and
        ``ready`` (:meth:`_ensure_worker`), which runs next, replaces it.  A
        dead lane gets no IO here; ``ready`` reopens it.  No ping goes out
        while a region runs (the lease is only tried), so a busy worker is
        never judged silent.
        Always False: the check finds no work.
        """
        if not slot.is_alive():
            return False
        slot.drain_control()
        if slot.unanswered_pings >= self.heartbeat_misses:
            _logger.warning(
                "%s (pid %s) missed %d heartbeats; terminating",
                self._lane_label(slot), slot.pid, slot.unanswered_pings,
            )
            slot.terminate()
            self._bump("worker_crashes")
            self._lane_down(slot, self._EV_LOST, "missed heartbeats")
        else:
            slot.send_ping()
        return False

    def _emit_worker_event(
        self, slot: RemoteLane, kind: EventKind, arg: object = None
    ) -> None:
        session = _obs.session()
        if session.enabled:
            session.emit(
                kind, target=worker_track(self.name, slot.index),
                name=f"worker {slot.index}{slot.where}", arg=arg,
            )

    def _lane_down(self, slot: RemoteLane, kind: EventKind, reason: str) -> int | None:
        """Reap the lane and emit its going-down instant: the exit code
        where the backend has one, else *reason*."""
        exitcode = slot.reap()
        self._emit_worker_event(
            slot, kind, arg=reason if exitcode is None else exitcode
        )
        return exitcode

    # -------------------------------------------------------------- shipping

    def _shipper_loop(self, slot: RemoteLane) -> None:
        try:
            # A lane whose worker cannot be brought up stops consuming
            # *before* it takes an item it could not ship; an empty queue
            # hands the idle lane to its health check.  An item leaves the
            # queue only under the lease of an up lane (``_claim``).
            self._serve_queue(
                partial(self._ship_claimed, slot),
                poll=self.heartbeat_interval,
                idle=partial(self._leased, self._idle_check, slot, False),
                ready=partial(self._leased, self._ensure_worker, slot),
                claim=partial(self._claim, slot),
            )
        finally:
            self._leased(self._retire_slot, slot)

    def _leased(self, step: Callable[..., Any], slot: RemoteLane,
                wait: bool = True) -> Any:
        """The shipper's *step*, lease held (False if busy and not *wait*)."""
        if not slot.lease.acquire(wait):
            return False
        try:
            if slot.handback is not None:
                region, cancel_sent_at = slot.handback
                slot.handback = None
                self._await_result(slot, region, cancel_sent_at=cancel_sent_at)
            return step(slot)
        finally:
            slot.lease.release()

    @staticmethod
    def _claim(slot: RemoteLane) -> bool:
        """Take a free lease of a lane with nothing handed back whose worker
        is alive (checked with the lease held: a cluster lane's check reads
        its control channel).  A lane whose worker died idle is refused, so
        ``_ensure_worker`` reopens it before it is shipped anything."""
        if slot.lease.acquire(blocking=False):
            if slot.connected and slot.handback is None and slot.is_alive():
                return True
            slot.lease.release()
        return False

    def _ship_claimed(self, slot: RemoteLane, region: TargetRegion) -> None:
        try:
            self._execute_remote(slot, region)
        finally:
            slot.lease.release()

    def _ship_on_caller(self, region: TargetRegion, timeout: float | None) -> bool:
        """Ship and await *region* on this thread, on a lane ``_claim``
        qualifies, while nothing is queued; False, with nothing done, if no
        lane does.  Past the *timeout* deadline the region is handed back
        to the lane, running."""
        if self._shutdown.is_set() or self._queue._work:
            return False
        hooks = _inj.hooks
        if hooks is not None:
            hooks.fire("post", self.name)  # before any lease: a seam holds no lock
        deadline = None if timeout is None else time.monotonic() + timeout
        for slot in self._slots:
            if not self._claim(slot):
                continue
            try:
                shipped = not self._shutdown.is_set()
                if shipped:
                    self._bump("posted")  # and its ENQUEUE, as post() books it
                    session = _obs.session()
                    if session.enabled:
                        session.emit(EventKind.ENQUEUE, target=self.name,
                                     region=region.seq)  # named by its SUBMIT
                        self._trace_depth(session)
                    self._execute_remote(slot, region, deadline)
            finally:
                slot.lease.release()
            if not (shipped and region.done and slot.connected):
                self.wakeup()  # the shipper reopens or finishes it now
            if shipped:
                return True
        return False

    def _retire_slot(self, slot: RemoteLane) -> None:
        """Stop the lane's worker on shipper exit (drain or hard stop)."""
        if not slot.connected:
            return
        if self._hard_stop.is_set():
            slot.terminate()
        else:
            slot.stop()
        self._lane_down(slot, self._EV_DOWN, "stop")

    def _execute_remote(self, slot: RemoteLane, region: TargetRegion,
                        deadline: float | None = None) -> None:
        """Ship *region* and await its verdict, lease held (and liveness
        checked when it was taken: a lane torn since fails the send)."""
        session = _obs.session()
        if session.enabled:
            session.emit(
                EventKind.DEQUEUE, target=self.name, region=region.seq,
                name=region._trace_name(session.generation),
            )
            self._trace_depth(session)
        if region.done:
            return  # withdrawn (cancelled) while queued: nothing to ship
        try:
            blob = wire.dumps_parts(
                (region.body, region.args, region.kwargs),
                what=f"payload of region {region.name!r}",
            )
        except SerializationError as exc:
            region.fulfill(exception=exc)
            return
        if not region.mark_running():
            return  # cancelled between dequeue and ship
        try:
            slot.task.send(
                wire.TaskMsg(
                    region.seq, region.name, region.source, blob,
                    session.enabled,
                )
            )
        except SerializationError as exc:
            # The channel refused the payload (too large for a frame)
            # before writing any of it: the region fails, the lane lives.
            region.fulfill(exception=exc)
            return
        except (OSError, ValueError) as exc:
            self._handle_worker_failure(
                slot, region, f"task send failed: {exc!r}"
            )
            return
        self._await_result(slot, region, deadline=deadline)

    def _await_result(self, slot: RemoteLane, region: TargetRegion, *,
                      deadline: float | None = None,
                      cancel_sent_at: float | None = None) -> None:
        """Wait for the worker's verdict while watching for crash/cancel/stop.
        Past a caller's *deadline* the region is cancelled and handed back
        (``slot.handback``); *cancel_sent_at* resumes one."""
        task = slot.task
        while True:
            tick = _POLL_TICK if deadline is None else min(
                _POLL_TICK, max(0.0, deadline - time.monotonic()))
            try:
                if task.poll(tick):
                    msg = task.recv()
                    if isinstance(msg, wire.ResultMsg) and msg.seq == region.seq:
                        self._deliver(slot, region, msg)
                        return
                    continue  # stale or unknown: keep waiting for ours
            except (EOFError, OSError):
                self._handle_worker_failure(
                    slot, region, "channel closed mid-region"
                )
                return
            if self._hard_stop.is_set():
                # shutdown(wait=False): fail the in-flight region fast.
                slot.send_cancel(region.seq)
                slot.terminate()
                region.fulfill(exception=TargetShutdownError(self.name))
                self._lane_down(slot, self._EV_DOWN, "hard stop")
                return
            if not slot.is_alive():
                self._handle_worker_failure(slot, region, "found dead mid-region")
                return
            expired = deadline is not None and time.monotonic() >= deadline
            if expired:
                region.request_cancel()
            if region.cancel_token.cancelled:
                now = time.monotonic()
                if cancel_sent_at is None:
                    # Parent-side cancellation (deadline watchdog, explicit
                    # request_cancel): forward it so the worker-side token —
                    # the one the body actually polls — flips too.
                    slot.send_cancel(region.seq)
                    cancel_sent_at = now
                elif now - cancel_sent_at > self.cancel_grace:
                    # The body ignored cooperative cancellation; reclaim the
                    # lane.  The next loop iteration takes the crash path.
                    _logger.warning(
                        "%s ignored cancellation of region %r for %.1fs; "
                        "terminating",
                        self._lane_label(slot), region.name, self.cancel_grace,
                    )
                    slot.terminate()
            if expired:
                slot.handback = (region, cancel_sent_at)
                return

    def _deliver(self, slot: RemoteLane, region: TargetRegion, msg: wire.ResultMsg) -> None:
        session = _obs.session()
        if session.enabled and msg.events:
            merge_worker_events(
                session, msg.events,
                offset_ns=slot.clock_offset,
                track=worker_track(self.name, slot.index),
                thread=f"{slot.endpoint} pid {slot.pid}".lstrip(),
            )
        if msg.ok:
            try:
                value = wire.loads(msg.blob, what=f"result of region {region.name!r}")
            except SerializationError as exc:
                region.fulfill(exception=exc)
                return
            region.fulfill(result=value)
        else:
            region.fulfill(
                exception=wire.unpack_exception(msg.exc_blob, msg.exc_text, msg.exc_tb)
            )

    def _handle_worker_failure(
        self, slot: RemoteLane, region: TargetRegion, detail: str
    ) -> None:
        """A worker died with *region* in flight: fail the waiter, account."""
        self._bump("worker_crashes")
        exitcode = self._lane_down(slot, self._EV_LOST, detail)
        if self._hard_stop.is_set():
            exc: Exception = TargetShutdownError(self.name)
        else:
            exc = WorkerCrashedError(
                self.name, slot.index,
                pid=slot.pid, exitcode=exitcode,
                region_name=region.name, detail=detail,
            )
        region.fulfill(exception=exc)
        _logger.error(
            "%s (pid %s) crashed [%s] running region %r (exitcode %s)",
            self._lane_label(slot), slot.pid, detail, region.name, exitcode,
        )
