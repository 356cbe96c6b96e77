"""Randomized concurrency stress harness with deterministic replay.

One *iteration* builds a private :class:`~repro.core.runtime.PjRuntime` with
a randomized topology (a maybe-bounded worker pool under a random rejection
policy, an always-unbounded second pool, usually an EDT), then drives a
seeded stream of mixed operations through it:

* ``nowait`` / ``default`` / ``name_as`` / ``await`` dispatches,
* nested ``await`` logical barriers and nested ``wait(tag)`` joins issued
  *from inside* target members,
* direct posts (``E.post``, no dispatch), from the issuing thread and,
  across targets, from inside target members,
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

After the workload quiesces, every phase hands its recorded :mod:`repro.obs`
window to the one verdict, :func:`~repro.check.invariants.verify_session`.

``--inject`` tampers with the *recorded events* of iteration 0 before
verification — proving, in CI and in tests, that the checker actually fails
when the trace lies (see :data:`~repro.check.faults.TAMPERS`).
"""

from __future__ import annotations

import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

from ..core import injection as _inj
from ..core.errors import PyjamaError, RegionFailedError
from ..core.region import RegionState, TargetRegion
from ..core.runtime import PjRuntime
from ..core.targets import REJECTION_POLICIES
from ..obs import recorder as _obs
from ..obs.events import EventKind, TraceEvent
from .faults import TAMPERS, ForceQueueFull, JitterHook, kill_worker
from .invariants import Violation, verify_session
from .report import CheckResult, PhaseOutcome

__all__ = [
    "StressProfile",
    "PROFILES",
    "StressBodyError",
    "region_body",
    "run_check",
    "run_iteration",
    "run_remote_phase",
    "run_policy_phase",
]

#: Label of the guaranteed raising region posted as op 0 of every
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
    # Scheduling policies (docs/TUNING.md) of both worker pools of every
    # stress iteration.  The defaults reproduce the unpoliced runtime;
    # tests/check/test_steal_invariants.py forces stealing and batching on
    # through these to prove the invariants survive the policies.
    steal: bool = False
    batch_max: int = 1


PROFILES: dict[str, StressProfile] = {
    # CI-sized: a few seconds, thread targets only.
    "smoke": StressProfile(
        "smoke", iterations=2, ops=80, buffer_size=1 << 17, use_dist=False
    ),
    # Developer-sized: longer schedules plus both rows of the remote-lane
    # phase (a worker process, then a loopback-TCP agent, killed
    # mid-region), the live-serving phase (worker kill under real HTTP load
    # — see repro.serve.soak), and the scheduling-policy phase (ring
    # stealing + dequeue batching on a saturated pool).
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


def _stuck_handles(
    handles: list[tuple[str, TargetRegion]], timeout: float
) -> list[Violation]:
    """Wait for each ``(label, region)``; one ``stuck-handle`` per region
    that does not reach a terminal state within *timeout*."""
    return [
        Violation("stuck-handle",
                  f"region {label!r} failed to reach a terminal state", name=label)
        for label, reg in handles
        if not reg.wait(timeout)
    ]


def _recorded(match: Callable[[TraceEvent], bool], invariant: str, detail: str,
              name: str) -> Callable[[list[TraceEvent]], list[Violation]]:
    """A verdict ``expect``: some recorded event must satisfy *match*."""
    return lambda events: (
        [] if any(map(match, events)) else [Violation(invariant, detail, name=name)]
    )


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
    # One profile knob subjects both pools to stealing/batching without
    # touching the op mix.
    policies = {"steal": profile.steal, "batch_max": profile.batch_max}
    handles: list[tuple[str, TargetRegion]] = []  # driver-issued regions
    inner: list[tuple[str, TargetRegion]] = []  # regions created inside bodies
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
            **policies,
        )
        rt.create_worker("w1", r.choice([1, 2]), **policies)
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

        def dispatch(tname: str, label: str, body: Callable, mode: str = "nowait",
                     *, book: list = handles, timeout: float = 5.0,
                     tag: str | None = None) -> None:
            """Issue one region and *book* its handle (bodies book theirs
            under ``inner``).  A refused or timed-out dispatch resolves the
            handle, so no waiter or tag group is stranded on a region that
            never enqueued."""
            reg = TargetRegion(body, name=label)
            book.append((label, reg))
            try:
                rt.invoke_target_block(tname, reg, mode, tag=tag, timeout=timeout)
            except (PyjamaError, TimeoutError) as exc:
                reg.request_cancel(exc)

        def post(tname: str, label: str, body: Callable, *,
                 book: list = handles) -> None:
            """Post one region straight onto *tname*'s queue and *book* it;
            a refused post resolves the handle, as in ``dispatch``."""
            reg = TargetRegion(body, name=label)
            book.append((label, reg))
            try:
                rt.get_target(tname).post(reg, timeout=0.5)
            except PyjamaError as exc:
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
                post("w0", RAISER_LABEL, region_body(0.0, True, RAISER_LABEL))
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
                body = region_body(duration, fail, f"{label}-cb")
                dispatch(tname, label, partial(post, dest, f"{label}-cb", body, book=inner))
            elif x < 0.92:
                post(tname, f"{label}-cb", region_body(duration, fail, f"{label}-cb"))
            else:
                try:
                    rt.wait_tag(r.choice(tags), timeout=5.0)
                except RegionFailedError:
                    pass  # failing/cancelled bodies are part of the workload
                except TimeoutError:
                    violations.append(Violation(
                        "stuck-tag",
                        f"wait_tag at {label} timed out: a tag group never joined",
                        name=label,
                    ))

        force_full.active = False

        # ---- quiesce: every handle terminal, tags joined, targets drained.
        # Outer bodies book their inner regions, so wait for them first.
        violations += _stuck_handles(handles, 8.0)
        violations += _stuck_handles(list(inner), 8.0)
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
    finally:
        _inj.uninstall()
        rt.shutdown(wait=False)

    tamper = None if inject is None else partial(TAMPERS[inject], victim=RAISER_LABEL)
    return PhaseOutcome(str(index), verify_session(
        session, found=violations, regions=handles + inner,
        targets=targets, tamper=tamper,
    ))


def run_remote_phase(profile: StressProfile, seed: int, backend: str) -> PhaseOutcome:
    """Remote-lane phase: a two-lane target loses one lane mid-region.

    *backend* ``"process"`` (report label ``dist``) hard-kills one worker
    process; ``"cluster"`` spawns two real ``repro cluster-worker`` agents
    over loopback TCP and terminates one.  Either way the phase proves
    errors-not-hangs (every handle ends terminal within the budget),
    failover (post-kill work completes on a surviving lane), that the
    backend's lane-up instant was recorded, and that the merged trace — the
    remote workers' own tracks included — still verifies: the lost region's
    queue events resolve and no half-open worker-side EXEC span leaks.
    Default-mode regions from a second caller, on idle lanes before the kill
    and after failover, must put a caller-shipped DEQUEUE on that trace.
    """
    label = "dist" if backend == "process" else "cluster"
    session = _obs.session()
    session.start(buffer_size=profile.buffer_size)
    rt = PjRuntime()
    handles: list[tuple[str, TargetRegion]] = []
    agents = []

    def from_second_caller(name: str) -> None:
        reg = TargetRegion(time.sleep, 0.05, name=name)
        handles.append((name, reg))
        with ThreadPoolExecutor(1, thread_name_prefix=f"{label}-caller") as caller:
            exc = caller.submit(rt.invoke_target_block, label, reg, timeout=10.0).exception()
        if exc is not None and not isinstance(exc, (PyjamaError, TimeoutError)):
            raise exc  # a failed region is the verdict's to judge; anything else is a bug

    try:
        if backend == "process":
            target = rt.create_process_worker(label, 2, heartbeat_interval=0.25)
            kill = partial(kill_worker, target, 0)
        else:
            # Lazy: the cluster machinery is only needed when this row runs.
            from ..cluster import spawn_agent_process

            for _ in range(2):
                agents.append(spawn_agent_process())
            target = rt.create_cluster(
                label, [a.endpoint for a in agents], heartbeat_interval=0.25
            )
            kill = agents[0].terminate
        deadline = time.monotonic() + 30.0
        while None in target.worker_pids and time.monotonic() < deadline:
            time.sleep(0.01)
        from_second_caller(f"{label}-direct-before")
        for i in range(10):
            if i == 6:
                time.sleep(0.3)  # let both lanes pick up work
                try:
                    kill()  # one lane dies mid-region
                except Exception:  # noqa: BLE001 - lane already down is fine
                    pass
            name = f"{label}-op{i:02d}"
            # time.sleep pickles by reference: a body every lane can run.
            reg = TargetRegion(time.sleep, 0.15 if i < 6 else 0.05, name=name)
            handles.append((name, reg))
            try:
                rt.invoke_target_block(label, reg, "nowait")
            except PyjamaError as exc:
                reg.request_cancel(exc)
        found = _stuck_handles(handles, 30.0)
        # Failover: a surviving lane must absorb the post-kill work.
        if not any(reg.state is RegionState.COMPLETED for _, reg in handles[6:]):
            found.append(Violation(
                "no-failover",
                "no post-kill region completed on a surviving lane",
                name=f"{label}-failover",
            ))
        from_second_caller(f"{label}-direct-after")
        rt.shutdown(wait=True)
    finally:
        rt.shutdown(wait=False)
        for agent in agents:
            agent.close()

    up = target._EV_UP
    lane_up = _recorded(lambda e: e.kind is up, "no-lane-up",
                        f"{label} phase recorded no {up.name} instant", f"{label}-trace")
    shippers = {slot.thread.name for slot in target._slots}
    direct = _recorded(lambda e: e.kind is EventKind.DEQUEUE and e.thread not in shippers,
                       "no-direct-ship", f"{label} phase shipped no region on a caller's "
                       "thread", f"{label}-direct")
    return PhaseOutcome(label, verify_session(
        session, found=found, regions=handles, targets=[target],
        expect=lambda events: lane_up(events) + direct(events),
    ))


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
    session = _obs.session()
    session.start(buffer_size=profile.buffer_size)
    rt = PjRuntime()
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
                rt.invoke_target_block(tname, reg, "nowait", timeout=10.0)
            except PyjamaError as exc:
                reg.request_cancel(exc)
        found = _stuck_handles(handles, 15.0)
        targets = [rt.get_target("hot"), rt.get_target("helper")]
        rt.shutdown(wait=True)
    finally:
        rt.shutdown(wait=False)

    ring_steal = _recorded(
        lambda e: e.kind is EventKind.PUMP_STEAL and isinstance(e.arg, dict)
        and e.arg.get("mode") == "steal",
        "no-steal", "policy phase recorded no ring-mode PUMP_STEAL", "policy-steal",
    )
    return PhaseOutcome("policy", verify_session(
        session, found=found, regions=handles, targets=targets, expect=ring_steal,
    ))


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

    ``inject`` (a :data:`~repro.check.faults.TAMPERS` key) tampers with
    iteration 0's recorded events so the resulting report demonstrates a
    detected violation; the other iterations run untampered.  ``dist`` and
    ``cluster`` force the process and cluster rows of the remote-lane phase
    on or off, ``serve`` the HTTP worker-kill phase, and ``policy`` the
    scheduling-policy phase (defaults: the profile's ``use_*`` fields).
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
        result.phases.append(run_remote_phase(prof, seed, "process"))
    if use_serve:
        # Lazy: repro.serve pulls in the adapters; keep plain checks light.
        from ..serve.soak import run_serve_phase

        result.phases.append(run_serve_phase(prof, seed))
    if use_cluster:
        result.phases.append(run_remote_phase(prof, seed, "cluster"))
    return result
