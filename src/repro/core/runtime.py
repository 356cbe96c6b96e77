"""The Pyjama-style runtime: virtual-target registry and Algorithm 1.

``PjRuntime.invoke_target_block`` is a line-for-line transcription of the
paper's Algorithm 1 ("Target block code execution"):

.. code-block:: text

    procedure invokeTargetBlock(T, E, B, a)
        if T in E then  B.exec()          # synchronous, context-aware inline
        else            E.post(B)         # asynchronous post
        if a is nowait or name_as then return
        if a is await then
            while B is not finished do    # logical barrier
                T.processAnotherEventHandler()
        else T.wait()                     # default option
"""

from __future__ import annotations

import threading
from functools import partial
from typing import Any, Callable

from ..obs import EventKind
from ..obs import recorder as _obs
from ..policy import StealRing
from .directives import SchedulingMode
from .errors import (
    AwaitTimeoutError,
    RuntimeStateError,
    TargetExistsError,
    UnknownTargetError,
)
from .region import _CANCELLED, TargetRegion
from .targets import _SESSION, EdtTarget, VirtualTarget, WorkerTarget, current_target
from .tags import TagRegistry

__all__ = ["PjRuntime", "default_runtime", "set_default_runtime", "reset_default_runtime"]

# The dispatch plan: a clause string resolves by one dict lookup, and the
# modes are told apart by identity, so no Python-level enum ``.value``
# descriptor or ``__hash__`` runs per dispatch.
_MODE_BY_VALUE = {m.value: m for m in SchedulingMode}
_DEFAULT, _NOWAIT, _NAME_AS, _AWAIT = SchedulingMode
_COUNTERS = ("inline", "posted", *_MODE_BY_VALUE)
#: Recorded as plain ints, as ``repro.core.targets`` records its kinds.
_SUBMIT, _INLINE_ELIDE = EventKind.REGION_SUBMIT.value, EventKind.INLINE_ELIDE.value


class PjRuntime:
    """A self-contained runtime instance.

    Most applications use the process-wide :func:`default_runtime`, mirroring
    Pyjama's static ``PjRuntime``; tests create private instances for
    isolation.

    One internal control variable (ICV), in the spirit of OpenMP's
    ``default-device-var``: ``default_target_var``, the virtual target used
    when a directive omits the target-property clause (the first target
    registered, until it goes).  Everything else a dispatch or a target can
    be told — queue bounds, rejection policy, deadline, stealing, batching
    — is a per-call argument with a built-in default (docs/TUNING.md).
    """

    def __init__(self) -> None:
        self._targets: dict[str, VirtualTarget] = {}
        # Read-mostly snapshot of the registry (copy-on-write): every
        # mutation republishes a fresh dict under ``_lock``, so the dispatch
        # hot path resolves names with one lock-free dict read.  Rebinding a
        # dict attribute is atomic under the GIL; readers see either the old
        # or the new snapshot, never a half-mutated one.
        self._targets_view: dict[str, VirtualTarget] = {}
        self._lock = threading.Lock()
        self.tags = TagRegistry()
        self.default_target_var: str | None = None
        # One steal ring per runtime: worker targets with stealing enabled
        # join at registration and leave at shutdown.
        self._steal_ring = StealRing()
        # Observability: dispatch counters (inline = Algorithm 1 line 7,
        # posted = line 8; per-mode tallies).  A dispatch books into its
        # thread's own tally without a lock; ``counters`` sums the tallies
        # and ``_retired``, where those of ended threads fold.
        self._local = threading.local()
        self._counters_lock = threading.RLock()
        self._tallies: dict[threading.Thread, dict[str, int]] = {}
        self._retired = dict.fromkeys(_COUNTERS, 0)

    def _open_tally(self) -> dict[str, int]:
        """The calling thread's tally, made at its first dispatch."""
        tally = self._local.tally = dict.fromkeys(_COUNTERS, 0)
        with self._counters_lock:
            for ended in [t for t in self._tallies if not t.is_alive()]:
                for k, v in self._tallies.pop(ended).items():
                    self._retired[k] += v
            self._tallies[threading.current_thread()] = tally
        return tally

    @property
    def counters(self) -> dict[str, int]:
        """Dispatches since the last :meth:`reset_counters`, by kind."""
        with self._counters_lock:
            total = dict(self._retired)
            for tally in self._tallies.values():
                for k, v in tally.items():
                    total[k] += v
        return total

    def reset_counters(self) -> None:
        # An offset, not zeroed tallies: only its own thread writes a tally.
        with self._counters_lock:
            for k, v in self.counters.items():
                self._retired[k] -= v

    # -------------------------------------------------------------- registry

    def register_target(self, target: VirtualTarget) -> VirtualTarget:
        with self._lock:
            if target.name in self._targets:
                raise TargetExistsError(target.name)
            self._targets[target.name] = target
            self._targets_view = dict(self._targets)
            if self.default_target_var is None:
                self.default_target_var = target.name
        # Duck-typed on purpose: any target that opted into stealing (only
        # thread-backed workers can — a thief must share the victim's address
        # space) enrolls in this runtime's ring; it leaves at its shutdown.
        if getattr(target, "steal_enabled", False) and hasattr(target, "join_ring"):
            target.join_ring(self._steal_ring)
        return target

    def _register_new(self, target):
        """Register a target this runtime just built; a name clash must not
        leak the threads/processes its constructor already started."""
        try:
            self.register_target(target)
        except TargetExistsError:
            target.shutdown(wait=False)
            raise
        return target

    def create_worker(
        self,
        name: str,
        max_threads: int,
        *,
        queue_capacity: int | None = None,
        rejection_policy: str = "block",
        steal: bool = False,
        batch_max: int = 1,
    ) -> WorkerTarget:
        """``virtual_target_create_worker`` (paper Table II).

        The queue is unbounded unless *queue_capacity* is given; the
        scheduling policies (*steal*, *batch_max* — see docs/TUNING.md) are
        off by default.
        """
        target = WorkerTarget(
            name,
            max_threads,
            queue_capacity=queue_capacity,
            rejection_policy=rejection_policy,
            steal=steal,
            batch_max=batch_max,
        )
        return self._register_new(target)

    def create_process_worker(
        self,
        name: str,
        max_workers: int,
        *,
        queue_capacity: int | None = None,
        rejection_policy: str = "block",
        start_method: str | None = None,
        heartbeat_interval: float = 1.0,
    ):
        """``virtual_target_create_process_worker(tname, m)``: a worker
        virtual target backed by *max_workers* supervised OS processes.

        Same directive surface as :meth:`create_worker` (``virtual(name)``,
        ``nowait``/``name_as``/``await``, ``timeout=``, bounded queues and
        rejection policies), but region bodies execute outside the GIL of
        this process — the device layer for CPU-bound kernels.  See
        ``docs/DISTRIBUTION.md`` for when to choose process over thread
        targets, and :class:`~repro.dist.ProcessTarget` for supervision.
        """
        from ..dist import ProcessTarget  # lazy: dist imports core

        target = ProcessTarget(
            name,
            max_workers,
            queue_capacity=queue_capacity,
            rejection_policy=rejection_policy,
            start_method=start_method,
            heartbeat_interval=heartbeat_interval,
        )
        return self._register_new(target)

    def create_cluster(
        self,
        name: str,
        endpoints,
        *,
        shards: int = 1,
        queue_capacity: int | None = None,
        rejection_policy: str = "block",
        heartbeat_interval: float = 1.0,
    ):
        """``virtual_target_create_cluster(tname, endpoints)``: a worker
        virtual target backed by socket-connected remote worker agents.

        Same directive surface as :meth:`create_worker` /
        :meth:`create_process_worker`, but region bodies execute on cluster
        worker agents (``python -m repro cluster-worker``) at the given
        ``host:port`` *endpoints* — *shards* lanes per endpoint, all pulling
        one shared queue (least-loaded routing across hosts).  See
        :class:`~repro.cluster.ClusterTarget` for reconnects and
        ``docs/DISTRIBUTION.md`` for failure semantics.
        """
        from ..cluster import ClusterTarget  # lazy: cluster imports core

        target = ClusterTarget(
            name,
            endpoints,
            shards=shards,
            queue_capacity=queue_capacity,
            rejection_policy=rejection_policy,
            heartbeat_interval=heartbeat_interval,
        )
        return self._register_new(target)

    def register_edt(
        self,
        name: str,
        *,
        queue_capacity: int | None = None,
        rejection_policy: str = "block",
    ) -> EdtTarget:
        """``virtual_target_register_edt`` (paper Table II): the calling
        thread becomes the EDT of a new target named *name*."""
        target = EdtTarget(
            name, queue_capacity=queue_capacity, rejection_policy=rejection_policy
        )
        self.register_target(target)
        target.register_current_thread()
        return target

    def start_edt(
        self,
        name: str,
        *,
        queue_capacity: int | None = None,
        rejection_policy: str = "block",
    ) -> EdtTarget:
        """Spawn a dedicated EDT thread (headless convenience)."""
        target = EdtTarget(
            name, queue_capacity=queue_capacity, rejection_policy=rejection_policy
        )
        self.register_target(target)
        target.start_in_thread()
        return target

    def get_target(self, name: str) -> VirtualTarget:
        # Lock-free: reads the copy-on-write snapshot (see __init__).
        target = self._targets_view.get(name)
        if target is None:
            raise UnknownTargetError(name)
        return target

    def has_target(self, name: str) -> bool:
        return name in self._targets_view

    def target_names(self) -> list[str]:
        return sorted(self._targets_view)

    def unregister_target(self, name: str, *, shutdown: bool = True, wait: bool = False) -> None:
        with self._lock:
            target = self._targets.pop(name, None)
            self._targets_view = dict(self._targets)
            if self.default_target_var == name:
                self.default_target_var = next(iter(self._targets), None)
        if target is not None and shutdown:
            target.shutdown(wait=wait)

    def shutdown(self, wait: bool = True) -> None:
        """Shut down every registered target and clear the registry."""
        with self._lock:
            targets = list(self._targets.values())
            self._targets.clear()
            self._targets_view = {}
            self.default_target_var = None
        for t in targets:
            t.shutdown(wait=wait)
        # Keep recorded failures: a wait_tag released by this teardown must
        # still see that its regions were cancelled, not a clean join.
        self.tags.clear(keep_errors=True)

    # ------------------------------------------------------------ Algorithm 1

    def invoke_target_block(
        self,
        target_name: str | None,
        region: TargetRegion | Callable[[], Any],
        mode: SchedulingMode | str = SchedulingMode.DEFAULT,
        *,
        tag: str | None = None,
        timeout: float | None = None,
    ) -> TargetRegion:
        """Dispatch a target block per Algorithm 1 and the scheduling clause.

        Returns the region (usable as a handle: ``.wait()``, ``.result()``).
        For ``DEFAULT`` and ``AWAIT`` the call returns only after the block
        finished, re-raising any exception from the block's body.  *timeout*
        bounds the waiting modes: past the deadline the region is withdrawn if still queued and
        :class:`AwaitTimeoutError` is raised with a diagnostic dump.
        """
        if isinstance(mode, str):
            mode = _MODE_BY_VALUE.get(mode) or SchedulingMode(mode)  # ValueError if unknown
        key = mode._value_
        if not isinstance(region, TargetRegion):
            region = TargetRegion(region)
        elif region._state is _CANCELLED:
            # An already-cancelled handle must not be posted: run() would
            # no-op on the executor, leaving fire-and-forget callers with a
            # silently dead handle and waiting callers with the right error
            # only by accident.  Surface it deterministically here.
            if mode is _NOWAIT or mode is _NAME_AS:
                return region
            region.result()  # raises RegionCancelledError
            return region
        if mode is _NAME_AS:
            if tag is None:
                raise RuntimeStateError("name_as scheduling requires a tag")
            self.tags.register(tag, region)

        name = target_name if target_name is not None else self.default_target_var
        # Lock-free registry snapshot read (copy-on-write, see __init__).
        executor = self._targets_view.get(name)
        if executor is None:
            raise UnknownTargetError("<default>" if name is None else name)

        session = _SESSION
        if session.enabled:
            # The region's one label; its later events pass name=None.
            session.emit(
                _SUBMIT, target=name, region=region.seq,
                name=region._trace_name(session.generation), arg=key,
            )
        try:
            tally = self._local.tally
        except AttributeError:
            tally = self._open_tally()

        # Affinity router (Algorithm 1 lines 6-7).  Inline elision applies
        # only to thread-backed targets: membership means the calling thread
        # *is* the execution environment, so running the block synchronously
        # is indistinguishable from posting it (same address space, same
        # thread affinity).  Process targets keep supports_inline=False —
        # their execution environment is a different address space, and no
        # parent thread ever qualifies — so their regions always take the
        # posted path below.
        inline = executor.supports_inline and executor.contains()
        tally["inline" if inline else "posted"] += 1
        tally[key] += 1
        if inline:
            # Line 6-7: already in the target's context -> run synchronously.
            if session.enabled:
                session.emit(_INLINE_ELIDE, target=name, region=region.seq)
                executor._run_traced(session, region, None)
            else:
                region.run()
            if mode is _DEFAULT or mode is _AWAIT:
                region.result()  # re-raise body exception for waiting modes
            return region

        # Default mode blocks here anyway: a remote target may ship it here.
        shipped = (executor.ships_on_caller and mode is _DEFAULT
                   and executor._ship_on_caller(region, timeout))
        # The deadline bounds *admission* too: a bounded target under the
        # ``block`` policy parks the poster for at most ``timeout`` seconds
        # before raising QueueFullError, so a fire-and-forget dispatch into a
        # saturated queue cannot wedge the encountering thread forever (an
        # event loop posting with nowait depends on this).  Waiting modes
        # re-budget the wait after admission — the deadline is per phase.
        if not shipped:
            executor.post(region, timeout=timeout)  # line 8

        if mode is _NOWAIT or mode is _NAME_AS:  # lines 10-12
            return region

        if mode is _AWAIT:  # lines 13-16
            self._logical_barrier(region, executor, timeout=timeout)
        else:  # line 17, default: T.wait()
            if not (region.done if shipped else region.wait(timeout)):
                self._on_deadline(region, executor, timeout, kind="wait")
        region.result()  # surface exceptions exactly like inline execution
        return region

    def _on_deadline(
        self,
        region: TargetRegion,
        executor: VirtualTarget,
        timeout: float | None,
        *,
        kind: str,
    ) -> None:
        """A waiting dispatch blew its deadline: withdraw and diagnose.

        A still-queued region is cancelled (so it cannot run after the
        caller has given up on it); a running one is flagged via its
        cooperative cancel token and keeps the queue slot until the body
        notices.  Either way the caller gets :class:`AwaitTimeoutError` with
        queue depths and member threads of every registered target.
        """
        withdrawn = region.request_cancel(
            AwaitTimeoutError(f"deadline of {timeout}s expired", "")
        )
        state = "withdrawn before start" if withdrawn else f"left {region.state.value}"
        raise AwaitTimeoutError(
            f"{kind} on region {region.name!r} (target {executor.name!r}) exceeded "
            f"its {timeout}s deadline; region {state}",
            self.diagnostic_dump(),
        ) from None  # the pump's own expiry, if any, is in the dump

    def _logical_barrier(
        self,
        region: TargetRegion,
        executor: VirtualTarget,
        timeout: float | None = None,
    ) -> None:
        """Keep the encountering thread useful while *region* runs elsewhere.

        If the thread belongs to a virtual target, pump that target's queue
        ("T.processAnotherEventHandler()") in :meth:`VirtualTarget.pump_until`
        until *region*'s completion wakes it; otherwise degrade to a blocking
        wait.  *timeout* arms the
        barrier watchdog: past the deadline the region is withdrawn and
        :class:`AwaitTimeoutError` raised with a full diagnostic dump.
        """
        mine = current_target()
        if mine is None:
            if not region.wait(timeout):
                self._on_deadline(region, executor, timeout, kind="await")
            return
        region.add_done_callback(lambda _r: mine.wakeup())
        try:
            mine.pump_until(
                lambda: region.done, timeout=timeout,
                region=region.seq, name=region.label,
            )
        except AwaitTimeoutError:
            self._on_deadline(region, mine, timeout, kind="await")

    # ------------------------------------------------------------------ waits

    def wait_tag(self, tag: str, *, timeout: float | None = None) -> None:
        """The ``wait(name-tag)`` clause: join all blocks named *tag*.

        When called from a thread that belongs to a virtual target, other
        queued work is processed while waiting — the logical barrier of
        ``await``, woken when the group drains — keeping an EDT responsive
        even inside a join.  Past *timeout*: :class:`AwaitTimeoutError`.
        """
        mine = current_target()
        tags = self.tags
        where = None if mine is None else mine.name
        session = _obs.session()
        if session.enabled:
            session.emit(EventKind.TAG_WAIT_BEGIN, target=where, name=tag)
        try:
            if mine is None:
                tags.wait(tag, timeout=timeout)
            else:
                mine.pump_until(
                    partial(tags.drained, tag, mine.wakeup), timeout=timeout, name=tag
                )
                tags.raise_errors(tag)
        finally:
            if session.enabled:
                session.emit(EventKind.TAG_WAIT_END, target=where, name=tag)

    # -------------------------------------------------------------- telemetry

    def diagnostic_dump(self) -> str:
        """Multi-line snapshot of every target: queue depth, capacity,
        high-water mark, rejection counters, member threads.

        Attached to :class:`AwaitTimeoutError` by the barrier watchdog so a
        stuck system explains itself."""
        with self._lock:
            targets = list(self._targets.values())
        lines = [f"runtime diagnostics ({len(targets)} target(s)):"]
        lines.extend(f"  {t.describe()}" for t in targets)
        lines.append(f"  dispatch counters: {self.counters}")
        lines.append(f"  {_obs.session().describe()}")
        return "\n".join(lines)


_default_runtime: PjRuntime | None = None
_default_lock = threading.Lock()


def default_runtime() -> PjRuntime:
    """The process-wide runtime (created lazily)."""
    global _default_runtime
    with _default_lock:
        if _default_runtime is None:
            _default_runtime = PjRuntime()
        return _default_runtime


def set_default_runtime(runtime: PjRuntime) -> PjRuntime:
    """Replace the process-wide runtime (returns it for chaining)."""
    global _default_runtime
    with _default_lock:
        _default_runtime = runtime
    return runtime


def reset_default_runtime(*, shutdown: bool = True) -> None:
    """Tear down the process-wide runtime (test isolation helper)."""
    global _default_runtime
    with _default_lock:
        rt, _default_runtime = _default_runtime, None
    if rt is not None and shutdown:
        rt.shutdown(wait=False)
