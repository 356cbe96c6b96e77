"""repro.check: concurrency stress harness + trace-invariant checker.

``python -m repro check [--seed N] [--iterations K] [--profile smoke|soak]``
drives randomized, seeded workloads through the virtual-target runtime and
then audits the recorded :mod:`repro.obs` event stream against the runtime's
lifecycle invariants (every enqueue resolves, bodies run at most once and
never after cancellation, EXEC outcomes tell the truth, spans nest, no work
leaks past quiescence).  See ``docs/CHECKING.md`` for the invariant list,
the seed-replay workflow and the fault-injection knobs.
"""

from .faults import TAMPERS, ForceQueueFull, JitterHook, kill_worker
from .invariants import (
    EXEC_OUTCOMES,
    Violation,
    crosscheck_outcomes,
    verify_events,
    verify_quiescence,
    verify_session,
)
from .report import CheckResult, PhaseOutcome, render_report
from .stress import (
    PROFILES,
    RAISER_LABEL,
    StressBodyError,
    StressProfile,
    run_check,
    run_iteration,
    run_policy_phase,
    run_remote_phase,
)

__all__ = [
    "Violation",
    "EXEC_OUTCOMES",
    "verify_session",
    "verify_events",
    "verify_quiescence",
    "crosscheck_outcomes",
    "JitterHook",
    "ForceQueueFull",
    "kill_worker",
    "CheckResult",
    "PhaseOutcome",
    "render_report",
    "StressProfile",
    "StressBodyError",
    "PROFILES",
    "TAMPERS",
    "RAISER_LABEL",
    "run_check",
    "run_iteration",
    "run_remote_phase",
    "run_policy_phase",
]
