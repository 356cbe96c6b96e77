"""Structure gate: the runtime is timed in exactly one place.

``benchmarks/e2e`` is what every PR is judged on: six workloads driven from
another process, every response checked, per-layer probes beside them.  A
second copy of its numbers once lived in ``repro bench`` (groups ``trace``,
``cluster``, ``serve``) and a third in ``repro serve --bench``, each with a
CI step comparing it against a checked-in baseline at ``--max-regress 400``
— gates that timed calls, never looked at a value and admitted a 5x
regression.  This test keeps the copies from growing back.  ``repro bench``
stays for what has no probe: the paper's figures on ``repro.sim`` and the
real-thread micro-set.
"""

from __future__ import annotations

import collections
import pathlib

import repro.serve
from repro import bench
from repro.cli import build_parser

REPO = pathlib.Path(__file__).resolve().parents[2]
RESULTS = REPO / "benchmarks" / "results"

#: Each is a per-layer probe or a workload of benchmarks/e2e (see its README).
PROBED_GROUPS = {"trace", "cluster", "serve"}


def test_no_registered_benchmark_repeats_an_e2e_probe(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO))
    bench.load_builtin()
    assert "bench_ablation_batch" in bench.load_external()  # the scripts did load
    groups = {b.group for b in bench.all_benchmarks()}
    assert {"dispatch", "queue", "sim", "policy"} <= groups
    assert not groups & PROBED_GROUPS


def test_the_server_has_no_self_load_half():
    for name in ("run_open_loop", "latency_entry", "serve_document"):
        assert name not in repro.serve.__all__ and not hasattr(repro.serve, name)
    subparsers = next(a for a in build_parser()._actions if a.dest == "command")
    flags = {s for a in subparsers.choices["serve"]._actions for s in a.option_strings}
    assert {"--backend", "--workers", "--port"} <= flags  # what benchmarks/e2e starts it with
    assert not flags & {"--bench", "--requests", "--concurrency", "--mode", "--rate",
                        "--payload", "-o", "--output"}


def test_results_hold_one_format_per_result_and_no_baseline():
    files = [p for p in RESULTS.iterdir() if p.is_file()]
    assert files
    assert not [p.name for p in files if p.name.endswith("_baseline.json")]
    stems = collections.Counter(p.stem for p in files if p.suffix in (".txt", ".json"))
    assert not [stem for stem, n in stems.items() if n > 1]


def test_ci_compares_nothing_against_a_checked_in_number():
    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    assert "--max-regress" not in ci and "--compare" not in ci
    assert ci.count("benchmarks/e2e/run.py --quick --trace 0") == 1
