"""``repro.explore``: systematic (exhaustive) interleaving exploration.

The stress harness (:mod:`repro.check`) finds races by *sampling*
interleavings under random jitter; this package finds them by *enumerating*
interleavings.  A deterministic scheduler serializes workload threads at
the :mod:`repro.core.injection` seam points, a DFS walks the schedule tree
with DPOR-style sleep sets and CHESS-style preemption bounding, every
complete run is verified with the trace invariants, and a violating run is
emitted as an exact, replayable schedule file.

Entry points: :func:`explore` / :func:`replay` (library),
``python -m repro explore`` (CLI).
"""

from ..check.faults import TAMPERS  # the one ``--inject`` table, shared
from .explorer import (
    ExploreResult,
    ReplayResult,
    RunRecord,
    execute,
    explore,
    replay,
)
from .report import render_explore_report, render_replay_report
from .schedule import (
    SCHEDULE_FORMAT,
    ScheduleFile,
    ScheduleStep,
    load_schedule,
    save_schedule,
    schedule_digest,
)
from .scheduler import (
    DeterministicScheduler,
    ExplorationDeadlock,
    ExplorationError,
    ParkedActor,
)
from .workloads import WORKLOADS, ExploreContext, SensorRegion, Workload

__all__ = [
    "ExploreResult",
    "ReplayResult",
    "RunRecord",
    "TAMPERS",
    "execute",
    "explore",
    "replay",
    "render_explore_report",
    "render_replay_report",
    "SCHEDULE_FORMAT",
    "ScheduleFile",
    "ScheduleStep",
    "load_schedule",
    "save_schedule",
    "schedule_digest",
    "DeterministicScheduler",
    "ExplorationDeadlock",
    "ExplorationError",
    "ParkedActor",
    "WORKLOADS",
    "ExploreContext",
    "SensorRegion",
    "Workload",
]
