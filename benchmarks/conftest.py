"""Benchmark-suite fixtures: live table reporting + result archiving, and
timing a real-thread operation that needs set-up and clean-up.

Every figure/table benchmark prints the paper-style rows through the
``report`` fixture so the regenerated data is visible in the benchmark run's
output and archived under ``benchmarks/results/`` for EXPERIMENTS.md.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture()
def report(request, capsys):
    """Returns a callable: report(name, lines) — prints unbuffered and saves."""

    def _report(name: str, lines: list[str]) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        text = "\n".join(lines)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        with capsys.disabled():
            print(f"\n── {name} " + "─" * max(0, 66 - len(name)))
            print(text)

    return _report


@pytest.fixture()
def time_setup(benchmark):
    """Returns a callable: time_setup(setup, expect=None) — *setup* builds
    the operation and returns ``(op, cleanup)``; one untimed call must
    return *expect* (when given), then pytest-benchmark times *op*."""

    def _time(setup, expect=None) -> None:
        op, cleanup = setup()
        try:
            if expect is not None:
                assert op() == expect
            benchmark(op)
        finally:
            cleanup()

    return _time
