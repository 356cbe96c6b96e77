"""Alternating pairs of ``benchmarks/e2e/run.py``: a parent revision against
the working tree, as one command.

    python3 benchmarks/pairs.py --workload process_large --seeds 201-208

Run it inside the checkout whose working tree is the change.  The parent
(``--parent``, default ``HEAD``) is checked out with ``git worktree add``
in a temporary directory, removed afterwards.  Each seed is one pair: both
sides run ``run.py --workload W --seed N --seconds S --trace T`` with the
same seed, and the side that runs first alternates by seed (parent first on
the 1st, 3rd, ... seed).  The last stdout line of each run is its result.

Printed, per metric of the results: median [q1, q3] of each side, the
ratio of the medians (change / parent), the pairs the change won (by the
metric's ``better`` in BENCHMARK.json; ``lower`` for a metric it does not
list), and every pair's values, as the Markdown table of EXPERIMENTS.md.
Each run's metrics also go to stderr as they come.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))
from repro.bench import percentile  # noqa: E402 - this checkout's src

SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """``"201-208"``, ``"1,5,9"`` or a mix of both."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def order(index: int) -> tuple[str, str]:
    """Which side runs first in the pair of the *index*-th seed."""
    return SIDES if index % 2 == 0 else SIDES[::-1]


def run_once(tree: pathlib.Path, args: argparse.Namespace, seed: int) -> dict[str, float]:
    """One ``run.py`` pass in *tree*: its metrics, by name."""
    command = [sys.executable, str(tree / "benchmarks" / "e2e" / "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-4000:])
        raise SystemExit(f"{' '.join(command)} in {tree} exited {done.returncode}")
    metrics = json.loads(lines[-1])["metrics"]
    return {name: float(entry["value"]) for name, entry in metrics.items()}


def run_pairs(trees: dict[str, pathlib.Path],
              args: argparse.Namespace) -> list[dict[str, dict[str, float]]]:
    """One ``{side: metrics}`` per seed, the first side alternating."""
    pairs = []
    for index, seed in enumerate(args.seeds):
        pair = {}
        for side in order(index):
            pair[side] = run_once(trees[side], args, seed)
            print(f"seed {seed} {side}: {json.dumps(pair[side])}", file=sys.stderr, flush=True)
        pairs.append(pair)
    return pairs


def _fmt(value: float) -> str:
    if abs(value) >= 100:
        return f"{value:.0f}"
    return f"{value:.3f}" if abs(value) >= 0.01 or value == 0 else f"{value:.3g}"


def _spread(values: list[float]) -> str:
    q1, q2, q3 = (percentile(values, q) for q in (25, 50, 75))
    return f"{_fmt(q2)} [{_fmt(q1)}, {_fmt(q3)}]"


def table(pairs: list[dict[str, dict[str, float]]], better: dict[str, str],
          units: dict[str, str]) -> str:
    """The Markdown table, then every pair's values, metric by metric."""
    names = [n for n in pairs[0]["change"] if all(n in p[s] for p in pairs for s in SIDES)]
    rows = ["| metric | parent | change | ratio | pairs |", "|---|---|---|---|---|"]
    detail = []
    for name in names:
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        direction = better.get(name, "lower")
        won = sum((c < p) if direction == "lower" else (c > p) for p, c in zip(parent, change))
        base = percentile(parent, 50)
        ratio = f"{percentile(change, 50) / base:.2f}" if base else "n/a"
        unit = f" ({units[name]})" if units.get(name) else ""
        rows.append(f"| `{name}`{unit} | {_spread(parent)} | {_spread(change)} | {ratio} "
                    f"| {direction} {won}/{len(pairs)} |")
        detail.append(f"Pairs, `{name}`: parent {' '.join(map(_fmt, parent))}, "
                      f"change {' '.join(map(_fmt, change))}.")
    return "\n".join(rows + [""] + detail)


def _declared(tree: pathlib.Path) -> tuple[dict[str, str], dict[str, str]]:
    """``better`` and ``unit`` of every metric BENCHMARK.json declares."""
    path = tree / "BENCHMARK.json"
    spec = json.loads(path.read_text()) if path.is_file() else {}
    metrics = spec.get("end_to_end", []) + spec.get("per_layer", [])
    return ({m["name"]: m["better"] for m in metrics},
            {m["name"]: m.get("unit", "") for m in metrics})


def _git(tree: pathlib.Path, *words: str) -> str:
    return subprocess.run(["git", "-C", str(tree), *words], check=True,
                          capture_output=True, text=True).stdout.strip()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=parse_seeds, required=True,
                    help="one pair per seed: 201-208, or 1,5,9")
    ap.add_argument("--seconds", type=float, default=17.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--parent", default="HEAD", help="the revision to compare against")
    args = ap.parse_args(argv)

    change = pathlib.Path(_git(pathlib.Path.cwd(), "rev-parse", "--show-toplevel"))
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        parent = pathlib.Path(tmp) / "parent"
        _git(change, "worktree", "add", "--detach", str(parent), args.parent)
        try:
            pairs = run_pairs({"parent": parent.resolve(), "change": change}, args)
        finally:
            _git(change, "worktree", "remove", "--force", str(parent))
    print(f"{args.workload}, {len(pairs)} pairs, --seconds {args.seconds:g} "
          f"--trace {args.trace} --seed {','.join(map(str, args.seeds))}:\n")
    print(table(pairs, *_declared(change)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
