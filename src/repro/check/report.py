"""Deterministic result containers and report rendering for ``repro check``.

The report printed to stdout is part of the harness's contract: running
``python -m repro check --seed N ...`` twice must produce byte-identical
output, so a failure seed pasted into a bug report is a complete repro.
Everything here therefore renders only seed-deterministic material —
profile/seed/op counts, phase labels, and :class:`Violation` lines (which by
construction avoid timestamps, thread names and raw region ids).
Nondeterministic telemetry (event counts, rejection tallies) belongs on
stderr, not here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .invariants import Violation

__all__ = ["PhaseOutcome", "CheckResult", "render_report"]


@dataclass
class PhaseOutcome:
    """One verified phase: a stress iteration, or a named fault phase."""

    label: str
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class CheckResult:
    """Everything ``repro check`` learned from one run."""

    profile: str
    seed: int
    ops: int
    inject: str | None
    phases: list[PhaseOutcome] = field(default_factory=list)

    @property
    def violations(self) -> list[Violation]:
        return [v for phase in self.phases for v in phase.violations]

    @property
    def ok(self) -> bool:
        return not self.violations


def render_report(result: CheckResult) -> str:
    """The deterministic stdout report (one line per phase, findings nested)."""
    header = (
        f"repro check: profile={result.profile} seed={result.seed} "
        f"iterations={sum(1 for p in result.phases if p.label.isdigit())} "
        f"ops={result.ops}"
    )
    if result.inject:
        header += f" inject={result.inject}"
    lines = [header]
    for phase in result.phases:
        # Numbered phases are stress iterations; named ones ("dist",
        # "serve") are the special phases.
        what = "iteration" if phase.label.isdigit() else "phase"
        if phase.ok:
            lines.append(f"{what} {phase.label}: ok")
        else:
            lines.append(
                f"{what} {phase.label}: FAIL ({len(phase.violations)} violation(s))"
            )
            lines.extend(f"  {v.render()}" for v in phase.violations)
    total = len(result.violations)
    if total:
        lines.append(
            f"FAIL: {total} violation(s) across {len(result.phases)} phase(s) "
            f"— replay with --seed {result.seed}"
        )
    else:
        lines.append(f"OK: 0 violations across {len(result.phases)} phase(s)")
    return "\n".join(lines)
