"""Randomized concurrency stress harness with deterministic replay.

One *iteration* builds a private :class:`~repro.core.runtime.PjRuntime` with
a randomized topology (a maybe-bounded worker pool under a random rejection
policy, an always-unbounded second pool, usually an EDT), then drives a
seeded stream of mixed operations through it:

* ``nowait`` / ``default`` / ``name_as`` / ``await`` dispatches,
* nested ``await`` logical barriers and nested ``wait(tag)`` joins issued
  *from inside* target members,
* cross-target posts of instrumented plain callables,
* randomly failing bodies,
* a forced queue-full window (all three rejection policies get exercised),
* an optional mid-flight ``shutdown(wait=True/False)`` of one target.

Scheduling jitter (:class:`~repro.check.faults.JitterHook`) perturbs the
``post``/``dispatch`` seams so races actually happen.  Everything the
schedule depends on is drawn from ``random.Random(f"{seed}:{iteration}")``
**on the driver thread only** — worker-thread hooks get private RNGs — so a
seed deterministically reproduces the same operation stream, and the
violation report (built from harness-assigned labels, never timestamps or
thread names) reproduces byte-for-byte.

After the workload quiesces, the recorded :mod:`repro.obs` timeline goes
through :func:`~repro.check.invariants.verify_events`,
:func:`~repro.check.invariants.verify_quiescence` and
:func:`~repro.check.invariants.crosscheck_outcomes`.

``--inject`` tampers with the *recorded events* of iteration 0 before
verification — proving, in CI and in tests, that the checker actually fails
when the trace lies (see :data:`TAMPERS`).
"""

from __future__ import annotations

import logging
import random
import time
from dataclasses import dataclass, replace
from typing import Callable

from ..core import injection as _inj
from ..core.errors import PyjamaError, RegionFailedError, TagError
from ..core.region import TargetRegion
from ..core.runtime import PjRuntime
from ..core.targets import REJECTION_POLICIES
from ..obs import recorder as _obs
from ..obs.events import EventKind, TraceEvent
from .faults import ForceQueueFull, JitterHook, kill_worker
from .invariants import Violation, crosscheck_outcomes, verify_events, verify_quiescence
from .report import CheckResult, PhaseOutcome

__all__ = [
    "StressProfile",
    "PROFILES",
    "TAMPERS",
    "StressBodyError",
    "region_body",
    "run_check",
    "run_iteration",
    "run_dist_phase",
    "run_cluster_phase",
    "run_policy_phase",
]

#: Label of the guaranteed raising callable posted as op 0 of every
#: iteration.  The tampers key on it: it always enqueues (the queue is empty,
#: the fault window has not opened) and always executes with outcome
#: "failed", so a deterministic victim exists for every ``--inject`` mode.
RAISER_LABEL = "op000-raise"


class StressBodyError(RuntimeError):
    """The deliberate failure raised by the harness's failing bodies."""


@dataclass(frozen=True)
class StressProfile:
    """Knobs of one stress configuration (see ``PROFILES``)."""

    name: str
    iterations: int
    ops: int
    buffer_size: int
    use_dist: bool
    use_serve: bool = False
    use_cluster: bool = False
    use_policy: bool = False
    jitter_probability: float = 0.15
    jitter_max_s: float = 0.002
    # Scheduling-policy ICVs applied to every stress iteration's runtime
    # (docs/TUNING.md).  The defaults reproduce the unpoliced runtime;
    # tests/check/test_steal_invariants.py forces stealing and batching on
    # through these to prove the invariants survive the policies.
    steal: bool = False
    batch_max: int = 1


PROFILES: dict[str, StressProfile] = {
    # CI-sized: a few seconds, thread targets only.
    "smoke": StressProfile(
        "smoke", iterations=2, ops=80, buffer_size=1 << 17, use_dist=False
    ),
    # Developer-sized: longer schedules plus the process-target phase with a
    # worker-death injection, the live-serving phase (worker kill under real
    # HTTP load — see repro.serve.soak), the cluster phase (remote agent
    # killed mid-region over loopback TCP), and the scheduling-policy phase
    # (ring stealing + dequeue batching on a saturated pool).
    "soak": StressProfile(
        "soak", iterations=10, ops=250, buffer_size=1 << 18, use_dist=True,
        use_serve=True, use_cluster=True, use_policy=True,
    ),
}


# --------------------------------------------------------------------- bodies


def region_body(duration: float, fail: bool, label: str) -> Callable[[], str]:
    """A deterministic region body: optional sleep, optional failure.

    The shared workload vocabulary of both harnesses: the stress iterations
    here and the exploration models in :mod:`repro.explore.workloads` build
    their regions from this, so a violation report names the same labels
    whichever harness found it.
    """

    def body() -> str:
        if duration:
            time.sleep(duration)
        if fail:
            raise StressBodyError(label)
        return label

    return body


def _make_callable(
    tid: int, label: str, duration: float, fail: bool, ran: dict
) -> Callable[[], None]:
    """An instrumented plain callable: stamps its trace identity and records
    its true outcome in *ran* for the post-hoc crosscheck."""

    def cb() -> None:
        if duration:
            time.sleep(duration)
        if fail:
            ran[tid] = (label, "failed")
            raise StressBodyError(label)
        ran[tid] = (label, "completed")

    cb._trace_id = tid  # type: ignore[attr-defined]
    cb._trace_name = label  # type: ignore[attr-defined]
    return cb


def _dist_sleep(duration: float) -> float:
    """Module-level (picklable) body for the process-target phase."""
    time.sleep(duration)
    return duration


# -------------------------------------------------------------------- tampers


def _tamper_lying_outcome(events: list[TraceEvent]) -> list[TraceEvent]:
    """Flip the raiser's ``EXEC_END`` from "failed" to "completed"."""
    for e in events:
        if e.kind is EventKind.EXEC_END and e.name == RAISER_LABEL:
            e.arg = "completed"
            break
    return events


def _tamper_lost_dequeue(events: list[TraceEvent]) -> list[TraceEvent]:
    """Delete the raiser's ``DEQUEUE``, simulating a queue that lost track."""
    for i, e in enumerate(events):
        if e.kind is EventKind.DEQUEUE and e.name == RAISER_LABEL:
            del events[i]
            break
    return events


def _tamper_negative_depth(events: list[TraceEvent]) -> list[TraceEvent]:
    """Append a ``QUEUE_DEPTH`` sample that went below zero."""
    ts = events[-1].ts + 1 if events else 1
    events.append(
        TraceEvent(EventKind.QUEUE_DEPTH, ts, "tamper", target="w0", arg=-1)
    )
    return events


#: ``--inject`` modes: pure transforms applied to iteration 0's recorded
#: events *before* verification.  Each must produce a deterministic,
#: seed-replayable violation — they are the checker's own regression tests.
TAMPERS: dict[str, Callable[[list[TraceEvent]], list[TraceEvent]]] = {
    "lying-exec-outcome": _tamper_lying_outcome,
    "lost-dequeue": _tamper_lost_dequeue,
    "negative-depth": _tamper_negative_depth,
}


# ------------------------------------------------------------------ iteration


def run_iteration(
    profile: StressProfile,
    seed: int,
    index: int,
    *,
    ops: int | None = None,
    inject: str | None = None,
) -> PhaseOutcome:
    """Run one stress iteration and verify its trace; returns the outcome."""
    r = random.Random(f"{seed}:{index}")
    n_ops = ops if ops is not None else profile.ops
    violations: list[Violation] = []

    session = _obs.session()
    session.start(buffer_size=profile.buffer_size)
    jitter = JitterHook(
        random.Random(f"{seed}:{index}:jitter"),
        probability=profile.jitter_probability,
        max_sleep_s=profile.jitter_max_s,
    )
    force_full = ForceQueueFull(
        random.Random(f"{seed}:{index}:full"), ("w0",), probability=0.5
    )
    _inj.install(_inj.InjectionHooks(jitter=jitter, force_queue_full=force_full))

    rt = PjRuntime()
    rt.default_timeout_var = 5.0
    # Profile-driven scheduling policies: targets created below inherit
    # these ICVs, so one profile knob subjects the whole iteration to
    # stealing/batching without touching the op mix.
    rt.steal_var = profile.steal
    rt.batch_max_var = profile.batch_max
    handles: list[tuple[str, TargetRegion]] = []  # driver-issued regions
    inner: list[tuple[str, TargetRegion]] = []  # regions created inside bodies
    ran: dict[int, tuple[str, str]] = {}  # callable _trace_id -> (label, outcome)
    # The workload raises on purpose (failing callables, dropped backlog);
    # the runtime dutifully logs each one.  Silence that during the run —
    # the verifier, not the log, is the oracle here.
    target_logger = logging.getLogger("repro.core.targets")
    old_level = target_logger.level
    target_logger.setLevel(logging.CRITICAL)
    try:
        # Topology.  w0 is the stress focus: maybe bounded, random policy,
        # and the only target the forced-full hook targets.  w1 stays
        # unbounded so member bodies always have a post destination that
        # cannot park them forever (no block-policy deadlock cycles).
        rt.create_worker(
            "w0",
            r.choice([1, 2, 3]),
            queue_capacity=r.choice([None, 2, 4]),
            rejection_policy=r.choice(list(REJECTION_POLICIES)),
        )
        rt.create_worker("w1", r.choice([1, 2]))
        have_edt = r.random() < 0.7
        if have_edt:
            rt.start_edt("edt")
        all_names = ["w0", "w1"] + (["edt"] if have_edt else [])
        safe_names = ["w1"] + (["edt"] if have_edt else [])  # unbounded
        targets = [rt.get_target(n) for n in all_names]
        tags = ("alpha", "beta", "gamma")

        shutdown_at = int(n_ops * 0.8) if r.random() < 0.6 else None
        shutdown_target = r.choice(all_names)
        shutdown_wait = r.random() < 0.5
        window = (max(1, int(n_ops * 0.3)), max(2, int(n_ops * 0.45)))
        next_tid = -1

        def dispatch(tname: str, label: str, body: Callable, mode: str = "nowait",
                     *, book: list = handles, **clauses) -> None:
            """Issue one region and *book* its handle (bodies book theirs
            under ``inner``).  A refused or timed-out dispatch resolves the
            handle, so no waiter or tag group is stranded on a region that
            never enqueued."""
            reg = TargetRegion(body, name=label)
            book.append((label, reg))
            try:
                rt.invoke_target_block(tname, reg, mode, **clauses)
            except (PyjamaError, TimeoutError) as exc:
                reg.request_cancel(exc)

        for k in range(n_ops):
            if k == window[0]:
                force_full.active = True
            elif k == window[1]:
                force_full.active = False
            if shutdown_at == k:
                rt.get_target(shutdown_target).shutdown(wait=shutdown_wait)

            label = f"op{k:03d}"
            tname = r.choice(all_names)
            duration = r.choice([0.0, 0.0005, 0.002])
            fail = r.random() < 0.12
            x = r.random()

            if k == 0:
                # The designated raiser: guaranteed ENQUEUE -> DEQUEUE ->
                # EXEC "failed" chain the tampers key on.
                cb = _make_callable(next_tid, RAISER_LABEL, 0.0, True, ran)
                next_tid -= 1
                rt.get_target("w0").post(cb)
            elif x < 0.20:
                dispatch(tname, label, region_body(duration, fail, label))
            elif x < 0.35:
                dispatch(tname, label, region_body(duration, fail, label), "default")
            elif x < 0.50:
                dispatch(tname, label, region_body(duration, fail, label),
                         "name_as", tag=r.choice(tags))
            elif x < 0.60:
                dispatch(tname, label, region_body(duration, fail, label), "await")
            elif x < 0.70:
                # Nested logical barrier: the outer body runs on a member
                # thread and awaits an inner region.  Inner destinations are
                # restricted to unbounded targets (or the host itself, which
                # elides inline) so member threads never park on a full
                # bounded queue — that cycle is a real deadlock, not a bug
                # this harness hunts.
                inner_name = r.choice(safe_names + [tname])
                inner_label = f"{label}-inner"
                inner_duration = r.choice([0.0, 0.0005])

                def outer(inner_name=inner_name, inner_label=inner_label,
                          inner_duration=inner_duration) -> None:
                    dispatch(
                        inner_name, inner_label,
                        region_body(inner_duration, False, inner_label),
                        "await", book=inner, timeout=3.0,
                    )

                dispatch(tname, label, outer)
            elif x < 0.76:
                # Nested tag join: the same barrier entered through
                # ``wait(tag)``.  The outer body, on a member thread, posts
                # two inner regions under a tag of its own (safe destinations
                # only, as above) and joins them while pumping its host.
                inner_names = [r.choice(safe_names + [tname]) for _ in range(2)]
                join_tag = f"{label}-join"

                def joiner(inner_names=inner_names, join_tag=join_tag) -> None:
                    for i, inner_name in enumerate(inner_names):
                        inner_label = f"{join_tag}{i}"
                        dispatch(
                            inner_name, inner_label,
                            region_body(0.0005, False, inner_label),
                            "name_as", book=inner, tag=join_tag,
                        )
                    try:
                        rt.wait_tag(join_tag, timeout=3.0)
                    except RegionFailedError:
                        pass  # an inner region lost to the mid-flight shutdown
                    except TimeoutError:
                        violations.append(Violation(
                            "stuck-tag",
                            f"nested join of tag {join_tag!r} timed out",
                            name=join_tag,
                        ))

                dispatch(tname, label, joiner)
            elif x < 0.84:
                # Cross-target post issued from inside a body: a member of
                # one target feeds another target's queue directly.
                dest = r.choice(all_names)
                cb = _make_callable(next_tid, f"{label}-cb", duration, fail, ran)
                next_tid -= 1

                def poster(dest=dest, cb=cb) -> None:
                    try:
                        rt.get_target(dest).post(cb, timeout=0.5)
                    except PyjamaError:
                        pass  # full or shut down: the callable never enqueued

                dispatch(tname, label, poster)
            elif x < 0.92:
                cb = _make_callable(next_tid, f"{label}-cb", duration, fail, ran)
                next_tid -= 1
                try:
                    rt.get_target(tname).post(cb, timeout=0.5)
                except PyjamaError:
                    pass
            else:
                try:
                    rt.wait_tag(r.choice(tags), timeout=5.0)
                except RegionFailedError:
                    pass  # failing/cancelled bodies are part of the workload
                except TagError:
                    pass
                except TimeoutError:
                    violations.append(Violation(
                        "stuck-tag",
                        f"wait_tag at {label} timed out: a tag group never joined",
                        name=label,
                    ))

        force_full.active = False

        # ---- quiesce: every handle terminal, tags joined, targets drained.
        for label, reg in handles:
            if not reg.wait(8.0):
                violations.append(Violation(
                    "stuck-handle",
                    f"region {label!r} failed to reach a terminal state",
                    name=label,
                ))
        for label, reg in list(inner):
            if not reg.wait(8.0):
                violations.append(Violation(
                    "stuck-handle",
                    f"region {label!r} failed to reach a terminal state",
                    name=label,
                ))
        for tag in tags:
            try:
                rt.wait_tag(tag, timeout=5.0)
            except RegionFailedError:
                pass
            except TimeoutError:
                violations.append(Violation(
                    "stuck-tag", f"final join of tag {tag!r} timed out", name=tag
                ))
        rt.shutdown(wait=True)
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline and any(t.work_count() for t in targets):
            time.sleep(0.01)
        violations.extend(verify_quiescence(targets))
    finally:
        _inj.uninstall()
        rt.shutdown(wait=False)
        target_logger.setLevel(old_level)

    session.stop()
    stats = session.stats()
    events = session.events()
    if stats["dropped"]:
        # A lossy trace cannot be verified: unmatched spans would be ring
        # overflow, not runtime bugs.  Size the profile's buffer up instead.
        violations.append(Violation(
            "trace-overflow",
            f"ring buffers dropped {stats['dropped']} event(s); "
            "grow the profile's buffer_size",
        ))
    else:
        if inject is not None:
            events = TAMPERS[inject](events)
        violations.extend(verify_events(events))
        violations.extend(
            crosscheck_outcomes(events, regions=handles + list(inner), callables=ran)
        )
    return PhaseOutcome(str(index), _dedup(violations))


def run_dist_phase(profile: StressProfile, seed: int) -> PhaseOutcome:
    """Process-target phase: supervised workers, one killed mid-flight.

    The kill exercises crash detection, region fail-over and respawn; the
    verifier then proves the crashed region's queue events still resolved and
    no half-open worker-side EXEC span leaked into the merged trace.
    """
    violations: list[Violation] = []
    session = _obs.session()
    session.start(buffer_size=profile.buffer_size)
    rt = PjRuntime()
    handles: list[tuple[str, TargetRegion]] = []
    try:
        target = rt.create_process_worker(
            "pw", 2, max_restarts=3, heartbeat_interval=0.25
        )
        for i in range(6):
            label = f"dist-op{i:02d}"
            reg = TargetRegion(_dist_sleep, 0.15, name=label)
            handles.append((label, reg))
            rt.invoke_target_block("pw", reg, "nowait")
        time.sleep(0.3)  # let both workers pick up work
        try:
            kill_worker(target, 0)
        except Exception:  # noqa: BLE001 - lane already down is fine
            pass
        for i in range(6, 10):
            label = f"dist-op{i:02d}"
            reg = TargetRegion(_dist_sleep, 0.05, name=label)
            handles.append((label, reg))
            try:
                rt.invoke_target_block("pw", reg, "nowait")
            except PyjamaError as exc:
                reg.request_cancel(exc)
        for label, reg in handles:
            if not reg.wait(30.0):
                violations.append(Violation(
                    "stuck-handle",
                    f"region {label!r} failed to reach a terminal state",
                    name=label,
                ))
        rt.shutdown(wait=True)
        violations.extend(verify_quiescence([target]))
    finally:
        rt.shutdown(wait=False)
    session.stop()
    stats = session.stats()
    events = session.events()
    if stats["dropped"]:
        violations.append(Violation(
            "trace-overflow",
            f"ring buffers dropped {stats['dropped']} event(s); "
            "grow the profile's buffer_size",
        ))
    else:
        violations.extend(verify_events(events))
        violations.extend(crosscheck_outcomes(events, regions=handles))
    return PhaseOutcome("dist", _dedup(violations))


def run_cluster_phase(profile: StressProfile, seed: int) -> PhaseOutcome:
    """Cluster-target phase: two remote agents over loopback TCP, one killed.

    Spawns two real ``repro cluster-worker`` agent processes, routes regions
    across them through a :class:`~repro.cluster.ClusterTarget`, then kills
    one agent process mid-region.  The phase proves errors-not-hangs (every
    handle reaches a terminal state within the budget), shard failover (work
    posted after the kill still completes on the surviving endpoint) and that
    the merged trace — including the remote workers' own tracks — still
    verifies.
    """
    # Lazy: the cluster machinery is only needed when this phase runs.
    from ..cluster import spawn_agent_process

    violations: list[Violation] = []
    session = _obs.session()
    session.start(buffer_size=profile.buffer_size)
    rt = PjRuntime()
    handles: list[tuple[str, TargetRegion]] = []
    agent_a = agent_b = None
    try:
        agent_a = spawn_agent_process()
        agent_b = spawn_agent_process()
        target = rt.create_cluster(
            "cw",
            [agent_a.endpoint, agent_b.endpoint],
            max_restarts=2,
            heartbeat_interval=0.25,
        )
        for i in range(6):
            label = f"cluster-op{i:02d}"
            reg = TargetRegion(_dist_sleep, 0.15, name=label)
            handles.append((label, reg))
            rt.invoke_target_block("cw", reg, "nowait")
        time.sleep(0.3)  # let both agents pick up work
        agent_a.terminate()  # remote host dies mid-region
        survivors: list[tuple[str, TargetRegion]] = []
        for i in range(6, 10):
            label = f"cluster-op{i:02d}"
            reg = TargetRegion(_dist_sleep, 0.05, name=label)
            handles.append((label, reg))
            try:
                rt.invoke_target_block("cw", reg, "nowait")
                survivors.append((label, reg))
            except PyjamaError as exc:
                reg.request_cancel(exc)
        for label, reg in handles:
            if not reg.wait(30.0):
                violations.append(Violation(
                    "stuck-handle",
                    f"region {label!r} failed to reach a terminal state",
                    name=label,
                ))
        # Failover: the surviving endpoint must absorb the post-kill work.
        if survivors and not any(
            reg.state.name == "COMPLETED" for _, reg in survivors
        ):
            violations.append(Violation(
                "no-failover",
                "no post-kill region completed on the surviving endpoint",
                name="cluster-failover",
            ))
        rt.shutdown(wait=True)
        violations.extend(verify_quiescence([target]))
    finally:
        rt.shutdown(wait=False)
        for handle in (agent_a, agent_b):
            if handle is not None:
                handle.close()
    session.stop()
    stats = session.stats()
    events = session.events()
    if stats["dropped"]:
        violations.append(Violation(
            "trace-overflow",
            f"ring buffers dropped {stats['dropped']} event(s); "
            "grow the profile's buffer_size",
        ))
    else:
        if not any(e.kind is EventKind.WORKER_CONNECT for e in events):
            violations.append(Violation(
                "no-worker-connect",
                "cluster phase recorded no WORKER_CONNECT instant",
                name="cluster-trace",
            ))
        violations.extend(verify_events(events))
        violations.extend(crosscheck_outcomes(events, regions=handles))
    return PhaseOutcome("cluster", _dedup(violations))


def run_policy_phase(profile: StressProfile, seed: int) -> PhaseOutcome:
    """Scheduling-policy phase: ring stealing and dequeue batching engaged.

    Two stealing worker pools share a ring; one ("hot", a single batching
    lane) is saturated while the other ("helper") goes idle, so the burst
    *must* trigger ring steals.  The phase then proves:

    * the full invariant verifier stays clean (every stolen ``ENQUEUE``
      resolves exactly once, spans nest, outcomes tell the truth);
    * the policies actually engaged — at least one ring-mode ``PUMP_STEAL``
      was recorded (a policy phase that silently ran without its policies
      would prove nothing);
    * quiescence: no backlog leaks.
    """
    r = random.Random(f"{seed}:policy")
    violations: list[Violation] = []
    session = _obs.session()
    session.start(buffer_size=profile.buffer_size)
    rt = PjRuntime()
    rt.default_timeout_var = 10.0
    handles: list[tuple[str, TargetRegion]] = []
    try:
        rt.create_worker("hot", 1, steal=True, batch_max=4)
        rt.create_worker("helper", 1, steal=True, batch_max=2)
        # Saturate the hot pool: ~0.3 s of sleepy regions against one lane,
        # while the helper drains in ~0.02 s and turns thief.
        for k in range(150):
            label = f"policy-op{k:03d}"
            tname = "helper" if k % 10 == 9 else "hot"
            reg = TargetRegion(
                region_body(r.choice([0.001, 0.002]), False, label), name=label
            )
            handles.append((label, reg))
            try:
                rt.invoke_target_block(tname, reg, "nowait")
            except PyjamaError as exc:
                reg.request_cancel(exc)
        for label, reg in handles:
            if not reg.wait(15.0):
                violations.append(Violation(
                    "stuck-handle",
                    f"region {label!r} failed to reach a terminal state",
                    name=label,
                ))
        targets = [rt.get_target("hot"), rt.get_target("helper")]
        rt.shutdown(wait=True)
        violations.extend(verify_quiescence(targets))
    finally:
        rt.shutdown(wait=False)
    session.stop()
    stats = session.stats()
    events = session.events()
    if stats["dropped"]:
        violations.append(Violation(
            "trace-overflow",
            f"ring buffers dropped {stats['dropped']} event(s); "
            "grow the profile's buffer_size",
        ))
    else:
        if not any(
            e.kind is EventKind.PUMP_STEAL
            and isinstance(e.arg, dict)
            and e.arg.get("mode") == "steal"
            for e in events
        ):
            violations.append(Violation(
                "no-steal",
                "policy phase recorded no ring-mode PUMP_STEAL",
                name="policy-steal",
            ))
        violations.extend(verify_events(events))
        violations.extend(crosscheck_outcomes(events, regions=handles))
    return PhaseOutcome("policy", _dedup(violations))


def run_check(
    profile: str = "smoke",
    seed: int = 0,
    *,
    iterations: int | None = None,
    ops: int | None = None,
    inject: str | None = None,
    dist: bool | None = None,
    serve: bool | None = None,
    cluster: bool | None = None,
    policy: bool | None = None,
) -> CheckResult:
    """Run the full check: N stress iterations, then the optional policy,
    dist, live-serving and cluster phases.

    ``inject`` (a :data:`TAMPERS` key) tampers with iteration 0's recorded
    events so the resulting report demonstrates a detected violation; the
    other iterations run untampered.  ``serve`` forces the HTTP worker-kill
    phase on or off, ``cluster`` the remote-agent-kill phase, and ``policy``
    the scheduling-policy phase (defaults: the profile's ``use_serve`` /
    ``use_cluster`` / ``use_policy``).
    """
    prof = PROFILES[profile]
    if ops is not None:
        prof = replace(prof, ops=ops)
    n_iterations = iterations if iterations is not None else prof.iterations
    use_dist = dist if dist is not None else prof.use_dist
    use_serve = serve if serve is not None else prof.use_serve
    use_cluster = cluster if cluster is not None else prof.use_cluster
    use_policy = policy if policy is not None else prof.use_policy
    result = CheckResult(profile=profile, seed=seed, ops=prof.ops, inject=inject)
    for i in range(n_iterations):
        result.phases.append(
            run_iteration(prof, seed, i, inject=inject if i == 0 else None)
        )
    if use_policy:
        result.phases.append(run_policy_phase(prof, seed))
    if use_dist:
        result.phases.append(run_dist_phase(prof, seed))
    if use_serve:
        # Lazy: repro.serve pulls in adapters/bench; keep plain checks light.
        from ..serve.soak import run_serve_phase

        result.phases.append(run_serve_phase(prof, seed))
    if use_cluster:
        result.phases.append(run_cluster_phase(prof, seed))
    return result


def _dedup(violations: list[Violation]) -> list[Violation]:
    seen: set[tuple[str, str]] = set()
    out: list[Violation] = []
    for v in sorted(violations, key=Violation.key):
        if v.key() not in seen:
            seen.add(v.key())
            out.append(v)
    return out
