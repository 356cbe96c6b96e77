"""Exploration workload models: small, fully-controllable race nurseries.

Each workload is a handful of actors driving *real* runtime objects
(:class:`~repro.core.targets.EdtTarget` queues, real ``post``/``cancel``/
``shutdown`` calls) through the deterministic scheduler.  Targets are
deliberately **unbound** EDT targets pumped by an enrolled actor — a free
-running pool thread cannot be scheduled deterministically, a pumping actor
can.  Region bodies come from :func:`repro.check.stress.region_body`, and
verification is the same invariant vocabulary as ``repro check``
(:mod:`repro.check.invariants`) plus per-workload checks for the specific
contract the model targets.

Design rules for a sound model:

* Every loop parks through ``ctx.checkpoint(..., enabled_when=...)`` — the
  predicate keeps no-op steps (pumping an empty queue) out of the schedule
  tree, which would otherwise be infinite, and a checkpoint returning False
  means teardown: exit.
* Goals are monotone (``region.done``, ``work_count() == 0``) so a model
  quiesces under *every* interleaving; a reachable stuck state is reported
  by the explorer as a deadlock violation, not a hang.
"""

from __future__ import annotations

from typing import Callable

from ..check.invariants import Violation
from ..check.stress import region_body
from ..core.region import TargetRegion
from ..core.targets import EdtTarget, VirtualTarget
from ..obs.events import EventKind, TraceEvent
from .scheduler import DeterministicScheduler

__all__ = ["ExploreContext", "Workload", "WORKLOADS", "SensorRegion"]


class ExploreContext:
    """The workload's handle on the scheduler: enrolment + cooperation."""

    def __init__(self, sched: DeterministicScheduler) -> None:
        self._sched = sched

    def actor(self, label: str, fn: Callable[[], None]) -> None:
        self._sched.actor(label, fn)

    def checkpoint(
        self,
        point: str,
        target: str | None = None,
        *,
        enabled_when: Callable[[], bool] | None = None,
    ) -> bool:
        return self._sched.checkpoint(point, target, enabled_when=enabled_when)

    def vsleep(self, delay: float) -> None:
        self._sched.vsleep(delay)


class SensorRegion(TargetRegion):
    """A region that records ``run()`` invocations arriving after it is
    already terminal — the exact contract the corpse-discard fix
    establishes: dispatch must not touch a withdrawn region at all."""

    __slots__ = ("late_runs",)

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.late_runs = 0

    def run(self) -> None:
        if self.done:
            self.late_runs += 1
        super().run()


class Workload:
    """One exploration model.  A fresh instance is built per run."""

    name = "abstract"
    description = ""

    def setup(self, ctx: ExploreContext) -> None:
        raise NotImplementedError

    def quiesce(self) -> None:
        """Driver-side teardown after all actors exited (or were released)."""
        for t in self.targets():
            t.shutdown(wait=False)

    def targets(self) -> list[VirtualTarget]:
        return []

    def regions(self) -> list[tuple[str, TargetRegion]]:
        return []

    def verify(self, events: list[TraceEvent]) -> list[Violation]:
        """Workload-specific checks beyond the generic invariants."""
        out: list[Violation] = []
        for label, region in self.regions():
            if isinstance(region, SensorRegion) and region.late_runs:
                out.append(Violation(
                    "exec-after-cancel",
                    f"run() was invoked on region {label!r} "
                    f"{region.late_runs}x after it reached a terminal state "
                    "(dispatch must discard corpses untouched)",
                    name=label,
                ))
        return out

    # ------------------------------------------------------------- helpers

    def _pump(self, ctx: ExploreContext, target: VirtualTarget,
              goal: Callable[[], bool]) -> Callable[[], None]:
        """A pumping actor body: drain *target* one item per granted step
        until *goal* holds.  Enabled only when there is work or the goal is
        already met (the final grant lets the loop observe it and exit)."""

        def enabled() -> bool:
            return target.work_count() > 0 or goal()

        def pump() -> None:
            while not goal():
                if not ctx.checkpoint("pump", target.name, enabled_when=enabled):
                    return  # free-run teardown
                if target.work_count() > 0:
                    target.process_one(timeout=0)

        return pump


class PostTwoOne(Workload):
    """Two posters race two regions into one manually-pumped target.

    The acceptance model: a 2-region/1-target workload small enough to
    enumerate exhaustively, exercising post/post/dispatch commutation."""

    name = "post-2x1"
    description = "two posters race two regions into one pumped target"

    def setup(self, ctx: ExploreContext) -> None:
        self.t0 = EdtTarget("t0")
        self.r1 = TargetRegion(region_body(0.0, False, "r1"), name="r1")
        self.r2 = TargetRegion(region_body(0.0, False, "r2"), name="r2")
        ctx.actor("post-a", lambda: self.t0.post(self.r1))
        ctx.actor("post-b", lambda: self.t0.post(self.r2))
        ctx.actor("pump", self._pump(
            ctx, self.t0, lambda: self.r1.done and self.r2.done
        ))

    def targets(self) -> list[VirtualTarget]:
        return [self.t0]

    def regions(self) -> list[tuple[str, TargetRegion]]:
        return [("r1", self.r1), ("r2", self.r2)]


class PostTwoTwo(Workload):
    """Two independent target/pumper pairs: the sleep-set pruning showcase.

    Steps on different targets commute, so DPOR-style sleep sets collapse
    the cross-products of independent orderings — compare its pruned count
    against ``post-2x1``, where everything conflicts on one target."""

    name = "post-2x2"
    description = "two posters on two independent targets (pruning showcase)"

    def setup(self, ctx: ExploreContext) -> None:
        self.t0 = EdtTarget("t0")
        self.t1 = EdtTarget("t1")
        self.r1 = TargetRegion(region_body(0.0, False, "r1"), name="r1")
        self.r2 = TargetRegion(region_body(0.0, False, "r2"), name="r2")
        ctx.actor("post-a", lambda: self.t0.post(self.r1))
        ctx.actor("post-b", lambda: self.t1.post(self.r2))
        ctx.actor("pump-a", self._pump(ctx, self.t0, lambda: self.r1.done))
        ctx.actor("pump-b", self._pump(ctx, self.t1, lambda: self.r2.done))

    def targets(self) -> list[VirtualTarget]:
        return [self.t0, self.t1]

    def regions(self) -> list[tuple[str, TargetRegion]]:
        return [("r1", self.r1), ("r2", self.r2)]


class CancelVsDispatch(Workload):
    """A cancel races a queued region's dequeue/dispatch.

    Orders explored: cancel before the post (never enqueued as live work),
    cancel while queued (corpse discarded at dequeue), cancel between the
    dispatch seam and execution (the PR-5 window), cancel after completion
    (no-op).  The SensorRegion pins that no order touches a corpse."""

    name = "cancel-vs-dispatch"
    description = "cancel races a queued region's dequeue and dispatch"

    def setup(self, ctx: ExploreContext) -> None:
        self.t0 = EdtTarget("t0")
        self.r1 = SensorRegion(region_body(0.0, False, "r1"), name="r1")
        ctx.actor("post-a", lambda: self.t0.post(self.r1))

        def canceller() -> None:
            ctx.checkpoint("cancel", "t0")
            self.r1.cancel()

        ctx.actor("cancel", canceller)
        ctx.actor("pump", self._pump(
            ctx, self.t0,
            lambda: self.r1.done and self.t0.work_count() == 0,
        ))

    def targets(self) -> list[VirtualTarget]:
        return [self.t0]

    def regions(self) -> list[tuple[str, TargetRegion]]:
        return [("r1", self.r1)]


class CallerRunsCancel(Workload):
    """Cancel races a ``caller_runs`` handoff on a full bounded queue.

    The queue (capacity 1) is pre-filled with a blocker, so the racing post
    always takes the caller-runs path; the cancel actor can land before the
    full-queue verdict, inside the handoff window (between the ``post`` and
    ``dispatch`` seams), or after execution.  Pre-fix, the first two orders
    emitted a ``caller_runs`` REJECT for — and invoked ``run()`` on — an
    already-cancelled region."""

    name = "caller-runs-cancel"
    description = "cancel races a caller_runs handoff on a full queue"

    def setup(self, ctx: ExploreContext) -> None:
        self.t0 = EdtTarget("t0", queue_capacity=1, rejection_policy="caller_runs")
        self.blocker = TargetRegion(region_body(0.0, False, "blocker"), name="blocker")
        # Driver-side (pass-through) post: the queue is deterministically
        # full before any actor is released.
        self.t0.post(self.blocker)
        self.r1 = SensorRegion(region_body(0.0, False, "r1"), name="r1")
        ctx.actor("post-a", lambda: self.t0.post(self.r1))

        def canceller() -> None:
            ctx.checkpoint("cancel", "t0")
            self.r1.cancel()

        ctx.actor("cancel", canceller)
        ctx.actor("pump", self._pump(
            ctx, self.t0,
            lambda: (
                self.blocker.done
                and self.r1.done
                and self.t0.work_count() == 0
            ),
        ))

    def targets(self) -> list[VirtualTarget]:
        return [self.t0]

    def regions(self) -> list[tuple[str, TargetRegion]]:
        return [("blocker", self.blocker), ("r1", self.r1)]

    def verify(self, events: list[TraceEvent]) -> list[Violation]:
        out = super().verify(events)
        # A caller_runs REJECT after the region's CANCEL claims a queue
        # bypass for work that never ran: the accounting half of the bug.
        cancelled_at: int | None = None
        for i, e in enumerate(events):
            if e.region != self.r1.seq:
                continue
            if e.kind is EventKind.CANCEL and cancelled_at is None:
                cancelled_at = i
            elif (
                e.kind is EventKind.REJECT
                and e.arg == "caller_runs"
                and cancelled_at is not None
            ):
                out.append(Violation(
                    "reject-after-cancel",
                    "caller_runs REJECT recorded for region 'r1' after its "
                    "CANCEL — a cancelled post must be discarded silently",
                    target="t0", name="r1",
                ))
                break
        return out


class ShutdownVsPost(Workload):
    """A shutdown races a poster through the post seam.

    Orders explored: post fully before shutdown (region runs or is
    cancelled with the backlog), shutdown before the poster's seam crossing
    (post raises on entry), and shutdown *inside* the window between the
    seam and the enqueue (the closed-queue put raises and the poster
    resolves its handle)."""

    name = "shutdown-vs-post"
    description = "shutdown(wait=False) races a poster's enqueue"
    wait = False

    def setup(self, ctx: ExploreContext) -> None:
        self.t0 = EdtTarget("t0")
        self.r1 = TargetRegion(region_body(0.0, False, "r1"), name="r1")

        def poster() -> None:
            try:
                self.t0.post(self.r1)
            except Exception as exc:  # TargetShutdownError: resolve the handle
                self.r1.request_cancel(exc)

        ctx.actor("post-a", poster)

        def shutter() -> None:
            ctx.checkpoint("shutdown", "t0")
            self.t0.shutdown(wait=self.wait)

        ctx.actor("shutdown", shutter)
        self._enrol_consumer(ctx)

    def _enrol_consumer(self, ctx: ExploreContext) -> None:
        ctx.actor("pump", self._pump(
            ctx, self.t0,
            lambda: self.r1.done and self.t0.work_count() == 0,
        ))

    def targets(self) -> list[VirtualTarget]:
        return [self.t0]

    def regions(self) -> list[tuple[str, TargetRegion]]:
        return [("r1", self.r1)]


class ShutdownWaitVsPost(ShutdownVsPost):
    """A *graceful* shutdown races a poster through the post seam.

    The contract at stake is the loop owner's — it exits at the shutdown
    sentinel, so a post landing behind the sentinel would sit on a queue
    nobody drains, ``PENDING`` forever — so this model's consumer is the
    real owner loop (``_serve_queue``), stepped through its ``ready`` hook
    and enabled whenever anything, sentinel included, is queued.  Every
    order must end with the region terminal: run before the sentinel, or
    refused by the sealed queue and resolved by the poster."""

    name = "shutdown-wait-vs-post"
    description = "shutdown(wait=True) races a poster's enqueue (owner loop)"
    wait = True

    def _enrol_consumer(self, ctx: ExploreContext) -> None:
        def queued() -> bool:
            return self.t0.pending > 0

        ctx.actor("loop", lambda: self.t0._serve_queue(
            self.t0._dispatch,
            ready=lambda: ctx.checkpoint("loop", "t0", enabled_when=queued),
        ))


class BarrierWakeupVsSiblingLane(Workload):
    """A barrier's wakeup races the idle sibling lanes of its own pool.

    One member of a two-lane pool ``w`` awaits ``r1`` on another target the
    way ``PjRuntime._logical_barrier`` does (``wakeup`` on completion,
    :meth:`~repro.core.targets.VirtualTarget.pump_until`), with a poll so
    long that only the wakeup can end the barrier, while both lanes' real
    owner loops (``_serve_queue``, stepped through ``ready`` whenever
    anything is queued) serve ``w``'s queue.  The member parks where the
    race is: after its predicate read ``r1`` as unfinished, before it blocks
    on the queue — enabled only once that wait would return (work queued, or
    a wakeup counted since the member read the count), so an order in which
    the completion's wakeup cannot reach the member ends as a reported
    deadlock, not a sleeping thread.  When a wakeup was a queue item, a
    sibling lane dequeuing it was such an order."""

    name = "barrier-wakeup-vs-sibling-lane"
    description = "a completion's wakeup races idle sibling lanes for a pumping member"
    #: Far beyond any run: if the member ever sleeps, it sleeps for good.
    POLL = 3600.0

    def setup(self, ctx: ExploreContext) -> None:
        self.w = EdtTarget("w")
        self.other = EdtTarget("other")
        self.r1 = TargetRegion(region_body(0.0, False, "r1"), name="r1")
        # Driver-side, as in ``_logical_barrier`` up to its pump: the region
        # is queued and its completion owes ``w`` a wakeup.
        self.other.post(self.r1)
        self.r1.add_done_callback(lambda _r: self.w.wakeup())
        self.barrier_over = False
        queue = self.w._queue

        def finished() -> bool:
            done, seen = self.r1.done, queue.wakeups
            if not done and not ctx.checkpoint(
                "block", "w",
                enabled_when=lambda: self.w.work_count() > 0 or queue.wakeups != seen,
            ):
                return True  # free-run teardown: leave the barrier
            return done

        def member() -> None:
            self.w._enter_member()
            try:
                self.w.pump_until(finished, self.POLL, region=self.r1.seq, name="r1")
            finally:
                self.barrier_over = True
                self.w._exit_member()

        def lane() -> None:
            # Stepped like shutdown-wait-vs-post's loop; the end of the
            # barrier stands in for the shutdown marker.
            self.w._serve_queue(self.w._dispatch, ready=lambda: ctx.checkpoint(
                "loop", "w",
                enabled_when=lambda: self.w.pending > 0 or self.barrier_over,
            ) and not self.barrier_over)

        ctx.actor("member", member)
        ctx.actor("lane-a", lane)
        ctx.actor("lane-b", lane)
        ctx.actor("complete", self._pump(ctx, self.other, lambda: self.r1.done))

    def targets(self) -> list[VirtualTarget]:
        return [self.w, self.other]

    def regions(self) -> list[tuple[str, TargetRegion]]:
        return [("r1", self.r1)]

    def verify(self, events: list[TraceEvent]) -> list[Violation]:
        out = super().verify(events)
        polled = self.w.stats["barriers_ended_by_poll"]
        if polled:
            out.append(Violation(
                "barrier-ended-by-poll",
                f"{polled} barrier(s) on 'w' outlived their region until a "
                "poll expired — the completion's wakeup never reached the member",
                target="w", name="r1",
            ))
        return out


class SlowBodyCancel(Workload):
    """A cooperative cancel races a long-running body — in virtual time.

    The body "runs" three virtual ticks then polls its cancel token; the
    canceller fires after two.  Exploration permutes whether the dispatch
    starts before, during, or after the cancel window, all at simulator
    speed (``ctx.vsleep``), demonstrating the ``repro.sim`` integration."""

    name = "slow-body-cancel"
    description = "cooperative cancel races a slow body (virtual time)"

    def setup(self, ctx: ExploreContext) -> None:
        self.t0 = EdtTarget("t0")

        def body() -> str:
            ctx.vsleep(3.0)
            if self.r1.cancel_token.cancelled:
                return "bailed"  # cooperative early exit
            return "r1"

        self.r1 = TargetRegion(body, name="r1")
        ctx.actor("post-a", lambda: self.t0.post(self.r1))

        def canceller() -> None:
            ctx.vsleep(2.0)
            self.r1.request_cancel()

        ctx.actor("cancel", canceller)
        ctx.actor("pump", self._pump(
            ctx, self.t0,
            lambda: self.r1.done and self.t0.work_count() == 0,
        ))

    def targets(self) -> list[VirtualTarget]:
        return [self.t0]

    def regions(self) -> list[tuple[str, TargetRegion]]:
        return [("r1", self.r1)]


#: Registry: workload name -> class (instantiated fresh per run).
WORKLOADS: dict[str, type[Workload]] = {
    w.name: w
    for w in (
        PostTwoOne,
        PostTwoTwo,
        CancelVsDispatch,
        CallerRunsCancel,
        ShutdownVsPost,
        ShutdownWaitVsPost,
        BarrierWakeupVsSiblingLane,
        SlowBodyCancel,
    )
}
