"""``benchmarks/pairs.py`` against two stub ``run.py`` scripts: one in a
committed parent, one in the working tree of a throw-away repository."""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import textwrap

PAIRS = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "pairs.py"

# Stands in for benchmarks/e2e/run.py: logs "<side> <seed>" and prints
# metrics that name both, after a line that is not the result.
_STUB = """
    import argparse, json, os
    SIDE, SETUP, RATE = {side!r}, {setup!r}, {rate!r}
    ap = argparse.ArgumentParser()
    for flag in ("--workload", "--seed", "--seconds", "--trace"):
        ap.add_argument(flag)
    args = ap.parse_args()
    seed = int(args.seed)
    with open(os.environ["PAIRS_TEST_LOG"], "a") as log:
        log.write(f"{{SIDE}} {{seed}} {{args.workload}} {{args.seconds}} {{args.trace}}\\n")
    print("warming up")
    print(json.dumps({{"correct": True, "attempted": 1, "failed": 0, "metrics": {{
        "setup_s": {{"value": SETUP + seed / 10, "unit": "s"}},
        "throughput_ops_s": {{"value": RATE + seed, "unit": "ops/s"}},
    }}}}))
"""

_SPEC = {"end_to_end": [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "throughput_ops_s", "unit": "ops/s", "better": "higher", "bound": 0.25},
]}


def _write_stub(repo: pathlib.Path, side: str, setup: float, rate: float) -> None:
    run = repo / "benchmarks" / "e2e" / "run.py"
    run.parent.mkdir(parents=True, exist_ok=True)
    run.write_text(textwrap.dedent(_STUB).format(side=side, setup=setup, rate=rate))


def _git(repo: pathlib.Path, *words: str) -> str:
    return subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *words],
        cwd=repo, check=True, capture_output=True, text=True,
    ).stdout


def test_pairs_alternate_share_seeds_and_tabulate(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q")
    (repo / "BENCHMARK.json").write_text(json.dumps(_SPEC))
    _write_stub(repo, "parent", 2.0, 100.0)
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "parent")
    _write_stub(repo, "change", 1.0, 150.0)  # the uncommitted change
    log = tmp_path / "runs.log"

    done = subprocess.run(
        [sys.executable, str(PAIRS), "--workload", "w", "--seeds", "1-3,4", "--seconds", "2"],
        cwd=repo, capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PAIRS_TEST_LOG=str(log)),
    )
    assert done.returncode == 0, done.stderr

    # Same seed on both sides of a pair; the first side alternates by seed.
    assert log.read_text().split("\n")[:-1] == [
        f"{side} {seed} w 2.0 0" for seed, sides in
        [(1, "PC"), (2, "CP"), (3, "PC"), (4, "CP")]
        for side in (("parent", "change") if sides == "PC" else ("change", "parent"))
    ]
    out = done.stdout
    assert "| metric | parent | change | ratio | pairs |" in out
    assert ("| `setup_s` (s) | 2.250 [2.175, 2.325] | 1.250 [1.175, 1.325] "
            "| 0.56 | lower 4/4 |") in out
    assert ("| `throughput_ops_s` (ops/s) | 102 [102, 103] | 152 [152, 153] "
            "| 1.49 | higher 4/4 |") in out
    assert "Pairs, `setup_s`: parent 2.100 2.200 2.300 2.400, change 1.100 1.200 1.300 1.400." in out
    # The parent's worktree is gone again.
    assert len(_git(repo, "worktree", "list").splitlines()) == 1
