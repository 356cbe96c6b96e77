"""``python -m repro bench``: output files, filtering, and --compare gating."""

from __future__ import annotations

import json

import pytest

from repro.bench import load_json, write_json
from repro.cli import main

# The two smoke-tagged builtin benchmarks are single-thread and cheap; every
# CLI test runs only those, with the external benchmark modules skipped.
FAST = ["--filter", "smoke", "--no-external", "--warmup", "0", "--repeats", "3"]


def _run(tmp_path, *extra, out="BENCH_out.json"):
    path = tmp_path / out
    return main(["bench", *FAST, "-o", str(path), *extra]), path


class TestBenchRun:
    def test_writes_schema_document(self, tmp_path, capsys):
        code, path = _run(tmp_path)
        assert code == 0
        doc = load_json(path)
        assert {"queue_post_drain", "region_create"} <= set(doc["benchmarks"])
        for b in doc["benchmarks"].values():
            assert b["p50_ns"] > 0
            assert b["p95_ns"] >= b["p50_ns"] >= b["min_ns"] > 0
        assert doc["env"]["cpu_count"] >= 1
        assert doc["protocol"] == {"warmup": 0, "repeats": 3, "trim": 0.2}
        out = capsys.readouterr().out
        assert "queue_post_drain" in out
        assert "wrote" in out

    def test_default_output_name_derives_from_filter(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--filter", "region_create", "--no-external",
                     "--warmup", "0", "--repeats", "2"]) == 0
        assert (tmp_path / "BENCH_region_create.json").exists()

    def test_no_match_exits_2(self, tmp_path, capsys):
        code, _ = _run(tmp_path)  # prime: valid run works
        assert code == 0
        assert main(["bench", "--filter", "no_such_bench", "--no-external"]) == 2

    def test_list_mode(self, capsys):
        assert main(["bench", "--list", "--no-external"]) == 0
        out = capsys.readouterr().out
        assert "queue_post_drain" in out
        assert "group=" in out


class TestCompareGating:
    def test_self_comparison_passes(self, tmp_path, capsys):
        code, path = _run(tmp_path)
        assert code == 0
        code2, _ = _run(tmp_path, "--compare", str(path), "--max-regress", "500",
                        out="BENCH_second.json")
        assert code2 == 0
        assert "regression(s)" in capsys.readouterr().out

    def test_injected_regression_fails(self, tmp_path, capsys):
        code, path = _run(tmp_path)
        assert code == 0
        # Shrink the baseline p50s so the current run is a huge regression.
        doc = load_json(path)
        for b in doc["benchmarks"].values():
            b["p50_ns"] = b["p50_ns"] / 1000.0
        fast_baseline = tmp_path / "fast_baseline.json"
        write_json(fast_baseline, doc)
        code2, _ = _run(tmp_path, "--compare", str(fast_baseline),
                        "--max-regress", "25", out="BENCH_second.json")
        assert code2 == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_bad_baseline_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "nope"}))
        code, _ = _run(tmp_path, "--compare", str(bad))
        assert code == 2
        assert "cannot load baseline" in capsys.readouterr().err
