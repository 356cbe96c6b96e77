"""Deterministic plain-text reports for exploration and replay runs.

Like :mod:`repro.check.report`, every line is built from schedule content
and harness-assigned labels — never timestamps, thread names or absolute
paths — so the same exploration produces byte-identical output anywhere,
and CI diffs of two reports mean something.
"""

from __future__ import annotations

from pathlib import Path

from .explorer import ExploreResult, ReplayResult

__all__ = ["render_explore_report", "render_replay_report"]


def render_explore_report(
    result: ExploreResult, schedule_path: Path | None = None
) -> str:
    """The text ``repro explore`` prints for one exploration: the schedule
    count, whether the tree was drained, and any violating schedule (saved
    at *schedule_path*)."""
    bound = (
        "unbounded"
        if result.preemption_bound is None
        else str(result.preemption_bound)
    )
    lines = [
        f"repro explore: workload={result.workload} "
        f"preemptions={bound} budget={result.max_schedules}"
        + (f" inject={result.inject}" if result.inject else "")
        + (f" seed={result.seed}" if result.seed is not None else ""),
        f"schedules: {result.schedules} explored, "
        f"{result.abandoned} abandoned, "
        f"{result.pruned_sleep} sleep-set pruned, "
        f"{result.pruned_preempt} preemption-bound pruned",
    ]
    if result.exhausted:
        lines.append(
            f"coverage: exhaustive (schedule tree drained; "
            f"max {result.max_steps} steps/run, {result.total_steps} total)"
        )
    else:
        lines.append(
            f"coverage: budget reached with branches left unexplored "
            f"(max {result.max_steps} steps/run, {result.total_steps} total)"
        )
    rec = result.violating
    if rec is None:
        lines.append("result: OK — no invariant violations in any schedule")
    else:
        lines.append(
            f"result: VIOLATION in a {len(rec.choices)}-step schedule "
            f"({result.violation_runs} violating run(s) found)"
        )
        lines.append("schedule:")
        for i, step in enumerate(rec.choices):
            lines.append(f"  {i:3d}  {step.describe()}")
        lines.append("violations:")
        for v in rec.violations:
            lines.append(f"  {v.render()}")
        if schedule_path is not None:
            lines.append(f"schedule file: {schedule_path}")
            lines.append(
                f"replay with: python -m repro explore --replay {schedule_path}"
            )
    return "\n".join(lines)


def render_replay_report(result: ReplayResult, path: str) -> str:
    """The text ``repro explore --replay`` prints: whether replaying the
    schedule file at *path* reproduced its recorded violations, found
    different ones, or diverged from the schedule."""
    sf = result.schedule
    lines = [
        f"repro explore --replay: workload={sf.workload} "
        f"steps={len(sf.steps)}"
        + (f" inject={sf.inject}" if sf.inject else ""),
    ]
    if result.record.diverged is not None:
        lines.append("result: DIVERGED — the runtime no longer follows this schedule")
        lines.append(f"  {result.record.diverged}")
    elif result.identical:
        if result.expected:
            lines.append(
                f"result: REPRODUCED — {len(result.actual)} recorded "
                "violation(s) reproduced identically"
            )
        else:
            lines.append("result: REPRODUCED — clean schedule, still clean")
        for v in result.actual:
            lines.append(f"  {v}")
    else:
        lines.append("result: MISMATCH — violations differ from the recording")
        lines.append(f"  recorded ({len(result.expected)}):")
        for v in result.expected:
            lines.append(f"    {v}")
        lines.append(f"  replayed ({len(result.actual)}):")
        for v in result.actual:
            lines.append(f"    {v}")
    return "\n".join(lines)
