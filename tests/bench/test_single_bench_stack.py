"""Structure gate: the runtime is timed in exactly one place, and each paper
figure is swept in exactly one place.

``benchmarks/e2e`` is what every PR is judged on: six workloads driven from
another process, every response checked, per-layer probes beside them.  A
second copy of its numbers once lived in ``repro bench`` — a registry, a
timing protocol of its own, a result schema and a comparer that no gate
called — and a third in ``repro serve --bench``.  What is left of
``repro.bench`` is the two helpers e2e imports.  The paper's figures come
from :mod:`repro.sim`: ``repro.sim.figures`` builds each sweep and its
table once, and both ``python -m repro figN`` and ``bench_figN_*.py`` call
it.  This test keeps the copies from growing back.
"""

from __future__ import annotations

import ast
import collections
import pathlib
import re

import repro.obs.metrics
import repro.serve
from repro import bench
from repro.cli import build_parser

REPO = pathlib.Path(__file__).resolve().parents[2]
RESULTS = REPO / "benchmarks" / "results"
BENCH_SCRIPTS = sorted((REPO / "benchmarks").glob("bench_*.py"))


def _subcommands() -> dict:
    return next(a for a in build_parser()._actions if a.dest == "command").choices


def test_no_registered_benchmark_repeats_an_e2e_probe():
    """No registry, no timing protocol, no result schema, no CLI: what is
    left of repro.bench is what benchmarks/e2e imports."""
    assert bench.__all__ == ["environment_fingerprint", "percentile"]
    assert bench.percentile is repro.obs.metrics.percentile
    env = bench.environment_fingerprint()
    for key in ("python", "implementation", "machine", "cpu_count", "gil",
                "usable_cores", "repro_version"):
        assert key in env, key
    assert "bench" not in _subcommands()
    # Module-level definitions only: typing.Protocol and the tag / steal
    # ring register() methods are not a benchmark registry.
    pattern = re.compile(r"^class Protocol\b|_REGISTRY|^def register\(|"
                         r"results_document|repro\.bench/v1", re.M)
    hits = [str(p.relative_to(REPO)) for p in (REPO / "src" / "repro").rglob("*.py")
            if pattern.search(p.read_text())]
    assert not hits


def test_bench_scripts_import_only_the_fingerprint():
    assert BENCH_SCRIPTS
    for path in BENCH_SCRIPTS:
        imports = re.findall(r"^[ \t]*((?:from repro\.bench|from repro import bench|"
                             r"import repro\.bench)\b.*)$", path.read_text(), re.M)
        allowed = ["from repro.bench import environment_fingerprint"]
        assert imports == (allowed if path.name == "bench_ablation_batch.py" else []), path.name


def test_each_figure_is_swept_in_one_place():
    figure_scripts = [p for p in BENCH_SCRIPTS
                      if re.match(r"bench_fig[1789]_", p.name)]
    assert len(figure_scripts) == 4
    for path in figure_scripts:
        text = path.read_text()
        assert "run_gui_benchmark(" not in text and "run_http_benchmark(" not in text, path.name
    # The CLI prints each figure from repro.sim.figures; only `timeline`
    # drives one cell itself, to trace it.
    cli = ast.parse((REPO / "src" / "repro" / "cli.py").read_text())
    callers = {
        fn.name for fn in ast.walk(cli) if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None)
        in ("run_gui_benchmark", "run_http_benchmark")
    }
    assert callers == {"cmd_timeline"}


def test_the_server_has_no_self_load_half():
    for name in ("run_open_loop", "latency_entry", "serve_document"):
        assert name not in repro.serve.__all__ and not hasattr(repro.serve, name)
    flags = {s for a in _subcommands()["serve"]._actions for s in a.option_strings}
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
