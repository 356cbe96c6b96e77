"""The serve worker-kill soak phase and the ``repro serve`` CLI surface.

The soak test is the acceptance criterion made executable: a process
worker is hard-killed while live HTTP requests are in flight, and every
request must come back as a response (5xx at worst) — no hangs, no
backlog leaks, clean drain afterwards.
"""

from __future__ import annotations

import json

import pytest

from repro.check.report import render_report, CheckResult
from repro.check.stress import PROFILES
from repro.cli import main
from repro.serve.soak import run_serve_phase


def test_worker_kill_under_live_load_yields_errors_not_hangs():
    outcome = run_serve_phase(PROFILES["smoke"], seed=0)
    assert outcome.label == "serve"
    assert outcome.ok, [v.render() for v in outcome.violations]


def test_serve_phase_renders_as_named_phase():
    from repro.check.report import PhaseOutcome

    result = CheckResult(profile="soak", seed=7, ops=1, inject=None)
    result.phases.append(PhaseOutcome("0"))
    result.phases.append(PhaseOutcome("dist"))
    result.phases.append(PhaseOutcome("serve"))
    text = render_report(result)
    assert "iteration 0: ok" in text
    assert "phase dist: ok" in text
    assert "phase serve: ok" in text
    assert "iterations=1" in text  # named phases are not iterations


def test_cli_serve_duration_mode(capsys):
    code = main([
        "serve", "--backend", "thread", "--port", "0",
        "--duration", "0.3",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "serving on http://127.0.0.1:" in out
    # The final stats snapshot is printed as JSON.
    snapshot = json.loads(out[out.index("{"):])
    assert snapshot["requests"] == 0


def test_cli_serve_rejects_both_backends(capsys):
    """One server, one backend: argparse refuses the old bench-only value."""
    with pytest.raises(SystemExit) as exc:
        main(["serve", "--backend", "both", "--duration", "0.1"])
    assert exc.value.code == 2
    assert "invalid choice: 'both'" in capsys.readouterr().err
