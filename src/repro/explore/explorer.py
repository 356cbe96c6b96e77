"""Systematic interleaving exploration: DFS over schedules with pruning.

Where ``repro check`` samples interleavings (random jitter, many seeds),
``repro explore`` *enumerates* them.  One **run** executes a workload model
(:mod:`repro.explore.workloads`) under the deterministic scheduler
(:mod:`repro.explore.scheduler`): a schedule prefix is replayed verbatim,
then a default continuation finishes the run; the driver records, at every
depth, which actors were enabled and which it chose.  The DFS then revisits
each depth and pushes one child node per unexplored alternative, so the
whole schedule tree is walked without ever storing states — classic
stateless model checking (Godefroot's VeriSoft / Microsoft's CHESS shape).

Two prunings keep the tree tractable:

* **Sleep sets** (DPOR): after exploring choice *c* at a state, *c* joins
  the sleep set handed to its sibling subtrees; a sleeping choice is only
  woken by a later step *dependent* on it.  Dependence is coarse — two
  steps commute iff both name a target and the targets differ — which is
  conservative (never unsound), and exact enough to collapse the
  cross-target interleavings of independent queues.
* **Preemption bounding** (CHESS): a context switch away from a
  still-enabled actor is a *preemption*; schedules exceeding the budget are
  cut.  Most races need 0–2 preemptions, so small bounds find the same bugs
  orders of magnitude sooner.  ``None`` means unbounded (exhaustive).

Every complete run is judged by the stress harness's own verdict
(:func:`repro.check.invariants.verify_session`) plus the workload's checks;
a violating run's exact schedule is saved as a ``repro.explore/v1`` file
(:mod:`repro.explore.schedule`) and :func:`replay` re-executes such a file
step for step, comparing the violations it reproduces against the recorded
ones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..check.faults import TAMPERS
from ..check.invariants import Violation, verify_session
from ..core import injection as _inj
from ..obs import recorder as _obs
from .schedule import ScheduleFile, ScheduleStep, load_schedule
from .scheduler import (
    DeterministicScheduler,
    ExplorationDeadlock,
    ExplorationError,
)
from .workloads import WORKLOADS, ExploreContext, Workload

__all__ = [
    "RunRecord",
    "ExploreResult",
    "ReplayResult",
    "execute",
    "explore",
    "replay",
]

#: Ring-buffer size for one run's trace: models are tiny, this never drops.
_BUFFER_SIZE = 1 << 16

#: Hard per-run step cap.  Workload models are required to quiesce in a
#: bounded number of decisions under *every* schedule (their loops park on
#: enabled-when predicates); blowing this cap means a model is unsound.
_MAX_STEPS = 1000


# ---------------------------------------------------------------- run records


@dataclass
class RunRecord:
    """Everything one executed schedule produced, for DFS and for reports."""

    #: The full executed schedule (prefix + default continuation).
    choices: list[ScheduleStep] = field(default_factory=list)
    #: Per depth: the enabled actors ``(label, point, target)``, label-sorted.
    enabled: list[tuple[tuple[str, str, str | None], ...]] = field(
        default_factory=list
    )
    #: Per depth: the active sleep set *before* the step was taken.
    sleeps: list[frozenset[str]] = field(default_factory=list)
    #: Per depth: cumulative preemptions including this step.
    preempts: list[int] = field(default_factory=list)
    violations: list[Violation] = field(default_factory=list)
    #: "sleep" / "preempt" when the continuation was abandoned by pruning.
    pruned: str | None = None
    #: Replay mismatch description (prefix did not match reality).
    diverged: str | None = None
    #: True when the run drove every actor to completion.
    complete: bool = False
    virtual_time: float = 0.0


def _preemption_cost(
    last: str | None,
    label: str,
    enabled_labels: frozenset[str],
) -> int:
    """1 when granting *label* preempts a still-enabled previous actor."""
    return 1 if (last is not None and last != label and last in enabled_labels) else 0


def execute(
    workload_factory: type[Workload],
    prefix: tuple[ScheduleStep, ...] = (),
    *,
    sleep_at_branch: frozenset[str] = frozenset(),
    preemption_bound: int | None = None,
    inject: str | None = None,
    chooser_rng: random.Random | None = None,
    step_timeout: float = 20.0,
) -> RunRecord:
    """Execute one run: replay *prefix*, then a default continuation.

    The continuation prefers staying on the previously-granted actor (zero
    preemption cost), skips actors in the evolving sleep set, and respects
    *preemption_bound*; *sleep_at_branch* seeds the sleep set at the first
    free depth (``len(prefix)``).  *chooser_rng*, when given, randomizes the
    continuation's tie-breaks — useful for sampling diverse schedules out of
    a space too large to exhaust; leave it None for canonical DFS order.
    """
    rec = RunRecord()
    sched = DeterministicScheduler(step_timeout=step_timeout)
    wl = workload_factory()
    ctx = ExploreContext(sched)

    # Recording and hooks go live *before* setup: workloads may pre-post
    # from the driver thread (which passes through the decision hook
    # unenrolled), and those enqueues must be on the verified timeline.
    session = _obs.session()
    session.start(buffer_size=_BUFFER_SIZE)
    _inj.install(_inj.InjectionHooks(decision=sched.decision))
    deadlock: ExplorationDeadlock | None = None
    try:
        wl.setup(ctx)
        sched.start()
        branch = len(prefix)
        sleep: frozenset[str] = frozenset()
        last: str | None = None
        cum_preempts = 0
        while True:
            if len(rec.choices) > _MAX_STEPS:
                raise ExplorationError(
                    f"run exceeded {_MAX_STEPS} steps: workload "
                    f"{wl.name!r} does not quiesce under this schedule"
                )
            try:
                parked = sched.wait_quiescent()
            except ExplorationDeadlock as dl:
                deadlock = dl
                break
            if not parked:
                rec.complete = True
                break
            depth = len(rec.choices)
            if depth == branch:
                sleep = sleep_at_branch
            info = {p.label: (p.point, p.target) for p in parked}
            enabled_labels = frozenset(info)
            snapshot = tuple((p.label, p.point, p.target) for p in parked)

            if depth < branch:
                want = prefix[depth]
                got = info.get(want.thread)
                if got is None:
                    rec.diverged = (
                        f"step {depth}: schedule grants {want.describe()} but "
                        f"actor {want.thread!r} is not enabled (enabled: "
                        f"{', '.join(sorted(info)) or 'none'})"
                    )
                    break
                if got != (want.point, want.target):
                    point, target = got
                    rec.diverged = (
                        f"step {depth}: schedule expects {want.describe()} but "
                        f"the actor is parked at "
                        f"{ScheduleStep(want.thread, point, target).describe()}"
                    )
                    break
                choice = want.thread
            else:
                candidates = []
                blocked_by_bound = False
                for p in parked:
                    if p.label in sleep:
                        continue
                    cost = _preemption_cost(last, p.label, enabled_labels)
                    if (
                        preemption_bound is not None
                        and cum_preempts + cost > preemption_bound
                    ):
                        blocked_by_bound = True
                        continue
                    candidates.append(p.label)
                if not candidates:
                    # Every enabled actor is asleep (this continuation is
                    # provably redundant) or over the preemption budget.
                    rec.pruned = "preempt" if blocked_by_bound else "sleep"
                    break
                if last in candidates:
                    choice = last  # stay on-thread: costs no preemption
                elif chooser_rng is not None:
                    choice = chooser_rng.choice(candidates)
                else:
                    choice = candidates[0]

            point, target = info[choice]
            cum_preempts += _preemption_cost(last, choice, enabled_labels)
            rec.choices.append(ScheduleStep(choice, point, target))
            rec.enabled.append(snapshot)
            rec.sleeps.append(sleep if depth >= branch else frozenset())
            rec.preempts.append(cum_preempts)

            if depth >= branch:
                # Sleep-set propagation: the chosen step wakes every sleeper
                # it depends on; unknown pending actions wake conservatively.
                kept = set()
                for s in sleep:
                    if s == choice or s not in info:
                        continue
                    s_target = info[s][1]
                    if target is not None and s_target is not None \
                            and target != s_target:
                        kept.add(s)  # independent: stays asleep
                sleep = frozenset(kept)
            last = choice
            sched.grant(choice)
    finally:
        sched.release_all()
        try:
            sched.join()
        except ExplorationError as exc:
            rec.violations.append(Violation("explore-stuck", str(exc)))
        _inj.uninstall()
        try:
            wl.quiesce()
        except Exception as exc:  # noqa: BLE001 - teardown must not mask runs
            rec.violations.append(Violation(
                "explore-teardown",
                f"workload quiesce raised {type(exc).__name__}: {exc}",
            ))
        session.stop()

    rec.virtual_time = sched.sim.now
    if deadlock is not None:
        rec.violations.append(Violation("explore-deadlock", str(deadlock)))
    for label, err in sched.errors().items():
        rec.violations.append(Violation(
            "actor-crash",
            f"actor {label!r} raised {type(err).__name__}: {err}",
            name=label,
        ))

    if rec.complete and rec.diverged is None:
        # ``--inject`` tampers every run's first matching event: the
        # violating schedule file then replays to the identical report.
        rec.violations = verify_session(
            session, found=rec.violations, regions=wl.regions(),
            targets=wl.targets(), expect=wl.verify,
            tamper=None if inject is None else TAMPERS[inject],
        )
    else:
        # A pruned, diverged or deadlocked run left a partial trace: report
        # only what the run itself saw.
        rec.violations.sort(key=Violation.key)
    session.clear()
    return rec


# ------------------------------------------------------------------------ DFS


@dataclass
class ExploreResult:
    """Aggregate outcome of one exploration."""

    workload: str
    preemption_bound: int | None
    max_schedules: int
    inject: str | None = None
    seed: int | None = None
    #: Runs that executed to completion (and were verified).
    schedules: int = 0
    #: Runs abandoned mid-flight by a pruning rule.
    abandoned: int = 0
    #: Individual branch alternatives skipped by each pruning rule.
    pruned_sleep: int = 0
    pruned_preempt: int = 0
    max_steps: int = 0
    total_steps: int = 0
    #: True when the schedule tree was drained within ``max_schedules``.
    exhausted: bool = False
    #: Completed runs that produced violations.
    violation_runs: int = 0
    #: The first violating run (its schedule is what gets saved).
    violating: RunRecord | None = None

    @property
    def ok(self) -> bool:
        return self.violation_runs == 0


@dataclass(frozen=True)
class _Node:
    prefix: tuple[ScheduleStep, ...]
    sleep: frozenset[str]


def explore(
    workload_name: str,
    *,
    preemption_bound: int | None = None,
    max_schedules: int = 2000,
    inject: str | None = None,
    seed: int | None = None,
    stop_on_violation: bool = True,
    step_timeout: float = 20.0,
) -> ExploreResult:
    """Enumerate the interleavings of one workload model.

    Runs a DFS over schedule prefixes: each executed run contributes one
    child node per unexplored enabled alternative at every depth, with sleep
    sets inherited along sibling order and the preemption budget enforced at
    generation time.  Stops when the tree is drained (``exhausted=True``) or
    ``max_schedules`` runs have executed.
    """
    if workload_name not in WORKLOADS:
        raise ValueError(
            f"unknown workload {workload_name!r} "
            f"(have: {', '.join(sorted(WORKLOADS))})"
        )
    if inject is not None and inject not in TAMPERS:
        raise ValueError(
            f"unknown inject mode {inject!r} "
            f"(have: {', '.join(sorted(TAMPERS))})"
        )
    factory = WORKLOADS[workload_name]
    result = ExploreResult(
        workload=workload_name,
        preemption_bound=preemption_bound,
        max_schedules=max_schedules,
        inject=inject,
        seed=seed,
    )
    rng = random.Random(seed) if seed is not None else None
    stack: list[_Node] = [_Node((), frozenset())]
    runs = 0
    while stack:
        if runs >= max_schedules:
            return result  # budget reached with work remaining: not exhausted
        node = stack.pop()
        runs += 1
        rec = execute(
            factory,
            node.prefix,
            sleep_at_branch=node.sleep,
            preemption_bound=preemption_bound,
            inject=inject,
            chooser_rng=rng,
            step_timeout=step_timeout,
        )
        if rec.diverged is not None:
            raise ExplorationError(
                f"workload {workload_name!r} is nondeterministic: "
                f"{rec.diverged}"
            )
        result.total_steps += len(rec.choices)
        result.max_steps = max(result.max_steps, len(rec.choices))
        if rec.pruned is not None:
            result.abandoned += 1
            if rec.pruned == "sleep":
                result.pruned_sleep += 1
            else:
                result.pruned_preempt += 1
        else:
            result.schedules += 1
            if rec.violations:
                result.violation_runs += 1
                if result.violating is None:
                    result.violating = rec
                if stop_on_violation:
                    return result

        # Sibling generation: one node per unexplored alternative at every
        # depth this run chose freely.
        for d in range(len(node.prefix), len(rec.choices)):
            snap = rec.sleeps[d]
            chosen = rec.choices[d].thread
            last = rec.choices[d - 1].thread if d > 0 else None
            cum_before = rec.preempts[d - 1] if d > 0 else 0
            enabled_here = rec.enabled[d]
            enabled_labels = frozenset(lbl for lbl, _, _ in enabled_here)
            acc = set(snap) | {chosen}
            alt_nodes: list[_Node] = []
            for lbl, _point, _target in enabled_here:
                if lbl == chosen:
                    continue
                if lbl in snap:
                    result.pruned_sleep += 1
                    continue
                cost = _preemption_cost(last, lbl, enabled_labels)
                if (
                    preemption_bound is not None
                    and cum_before + cost > preemption_bound
                ):
                    result.pruned_preempt += 1
                    continue
                alt_nodes.append(
                    _Node(tuple(rec.choices[:d]), frozenset(acc))
                )
                acc.add(lbl)
            # Reversed push: LIFO pop order then matches the sleep-set
            # accumulation order, so each child takes the alternative its
            # sleep set was built for.
            stack.extend(reversed(alt_nodes))
    result.exhausted = True
    return result


# --------------------------------------------------------------------- replay


@dataclass
class ReplayResult:
    """Outcome of replaying a saved schedule against the current code."""

    schedule: ScheduleFile
    record: RunRecord
    #: Violations the replay actually produced, rendered.
    actual: list[str] = field(default_factory=list)
    #: Violations recorded in the file when it was written, rendered.
    expected: list[str] = field(default_factory=list)

    @property
    def identical(self) -> bool:
        return self.record.diverged is None and self.actual == self.expected


def replay(path: str, *, step_timeout: float = 20.0) -> ReplayResult:
    """Re-execute a saved schedule file step for step.

    An ``identical`` result proves the schedule still pins the recorded
    violations (or, for a clean file, still passes); a divergence or a
    different violation list proves the runtime's behaviour under that
    interleaving changed.
    """
    sf = load_schedule(path)
    if sf.workload not in WORKLOADS:
        raise ValueError(
            f"{path}: schedule is for unknown workload {sf.workload!r}"
        )
    if sf.inject is not None and sf.inject not in TAMPERS:
        raise ValueError(
            f"{path}: schedule uses unknown inject mode {sf.inject!r}"
        )
    rec = execute(
        WORKLOADS[sf.workload],
        tuple(sf.steps),
        preemption_bound=None,
        inject=sf.inject,
        step_timeout=step_timeout,
    )
    return ReplayResult(
        schedule=sf,
        record=rec,
        actual=[v.render() for v in rec.violations],
        expected=list(sf.violations or []),
    )
