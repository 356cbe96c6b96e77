"""Ablation — the adaptive runtime policies (docs/TUNING.md evidence).

Two sweeps over the real runtime (no simulator), measuring a burst of
fire-and-forget regions through worker targets:

* **dequeue batching** — the same 1-lane worker draining a 200-region
  no-op burst with ``batch_max`` 1 / 4 / 16.  Every item pays an ENQUEUE;
  batching amortizes the queue lock and condition-variable hand-off across
  up to ``batch_max`` dequeues, so the per-item overhead is what moves.
* **work stealing** — a 40-region burst of 1 ms sleep bodies posted to one
  1-lane worker while an idle 1-lane sibling sits in the same runtime.
  With ``steal=`` off the sibling is dead weight; with it on, the
  sibling's idle poll (10 ms) turns into steals and the two lanes overlap
  their sleeps — the burst finishes in roughly half the wall time even on
  a single core, because sleeping releases the GIL.

Each case is a registered harness entry (group ``policy``), so
``python -m repro bench --filter ablation`` (or ``--filter policy``)
measures them under the shared protocol.  The pytest entry point prints the
table and archives ``benchmarks/results/bench_policy_ablation.json``; the
summary table lives in docs/TUNING.md.  The same two comparisons run on
every benchmark pass as the ``policy.*`` probes of ``benchmarks/e2e``; this
script is the instrument of the pending batch / steal-default trials
(ROADMAP item 5(c)), which need the intermediate ``batch_max`` and the
per-sample distribution.
"""

from __future__ import annotations

import json
import pathlib
import time

from repro import bench as hbench
from repro.core import PjRuntime

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

BATCH_BURST = 200          # no-op regions per timed batching sample
STEAL_BURST = 40           # sleeping regions per timed stealing sample
STEAL_SLEEP_S = 0.001


def _nop() -> None:
    return None


def _nap() -> None:
    time.sleep(STEAL_SLEEP_S)


def _burst(rt: PjRuntime, target: str, body, n: int) -> None:
    handles = [rt.invoke_target_block(target, body, "nowait") for _ in range(n)]
    for h in handles:
        if not h.wait(timeout=30.0):
            raise TimeoutError(f"burst region never resolved on {target!r}")


def _batch_case(batch_max: int):
    """A 1-lane worker draining the no-op burst at the given batch bound."""
    rt = PjRuntime()
    rt.create_worker("w", 1, batch_max=batch_max)
    _burst(rt, "w", _nop, BATCH_BURST)  # warm the lane + allocator
    op = lambda: _burst(rt, "w", _nop, BATCH_BURST)  # noqa: E731
    return op, lambda: rt.shutdown(wait=False)


@hbench.benchmark(
    "ablation_batch_b1", group="policy", tags=("ablation", "batch"),
    description=f"{BATCH_BURST}-region no-op burst, batch_max=1 (the default)",
)
def _ablation_batch_b1():
    return _batch_case(1)


@hbench.benchmark(
    "ablation_batch_b4", group="policy", tags=("ablation", "batch"),
    description=f"{BATCH_BURST}-region no-op burst, batch_max=4",
)
def _ablation_batch_b4():
    return _batch_case(4)


@hbench.benchmark(
    "ablation_batch_b16", group="policy", tags=("ablation", "batch"),
    description=f"{BATCH_BURST}-region no-op burst, batch_max=16",
)
def _ablation_batch_b16():
    return _batch_case(16)


def _steal_case(steal: bool):
    """Burst to a 1-lane worker with an idle 1-lane sibling (thief or not)."""
    rt = PjRuntime()
    rt.create_worker("prime", 1, steal=steal)
    rt.create_worker("wing", 1, steal=steal)
    _burst(rt, "prime", _nap, 4)  # warm both pools
    op = lambda: _burst(rt, "prime", _nap, STEAL_BURST)  # noqa: E731
    return op, lambda: rt.shutdown(wait=False)


@hbench.benchmark(
    "ablation_steal_off", group="policy", tags=("ablation", "steal"),
    description=f"{STEAL_BURST}x{STEAL_SLEEP_S * 1000:.0f}ms burst, idle sibling, stealing off",
)
def _ablation_steal_off():
    return _steal_case(False)


@hbench.benchmark(
    "ablation_steal_on", group="policy", tags=("ablation", "steal"),
    description=f"{STEAL_BURST}x{STEAL_SLEEP_S * 1000:.0f}ms burst, idle sibling, stealing on",
)
def _ablation_steal_on():
    return _steal_case(True)


_ENTRIES = (
    "ablation_batch_b1",
    "ablation_batch_b4",
    "ablation_batch_b16",
    "ablation_steal_off",
    "ablation_steal_on",
)


def test_ablation_policies(capsys):
    """Print the policy-ablation table; archive its JSON document."""
    protocol = hbench.Protocol(warmup=1, repeats=8, trim=0.125)
    results = [hbench.run_benchmark(hbench.get(n), protocol) for n in _ENTRIES]
    by_name = {r.name: r for r in results}

    header = f"{'case':<20} {'p50 (ms/burst)':>15} {'p95 (ms/burst)':>15} {'vs default':>11}"
    lines = [
        "Ablation: adaptive runtime policies (real runtime, see docs/TUNING.md)",
        f"batching: {BATCH_BURST} no-op regions, 1 lane; "
        f"stealing: {STEAL_BURST}x{STEAL_SLEEP_S * 1000:.0f}ms sleeps, 1+1 lanes",
        header,
        "-" * len(header),
    ]
    base = {"batch": by_name["ablation_batch_b1"], "steal": by_name["ablation_steal_off"]}
    for r in results:
        ref = base["batch" if "batch" in r.name else "steal"]
        lines.append(
            f"{r.name:<20} {r.p50_ns / 1e6:>15.2f} {r.p95_ns / 1e6:>15.2f} "
            f"{ref.p50_ns / r.p50_ns:>10.2f}x"
        )

    doc = hbench.results_document(results, protocol)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "bench_policy_ablation.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n"
    )
    with capsys.disabled():
        print("\n" + "\n".join(lines))

    # Sanity floor, not a perf gate: with sleeping bodies even one stolen
    # region overlaps wall time, so stealing must beat the idle sibling.
    off = by_name["ablation_steal_off"].p50_ns
    on = by_name["ablation_steal_on"].p50_ns
    assert on < off, (
        f"stealing burst p50 {on / 1e6:.2f}ms did not beat "
        f"steal-off p50 {off / 1e6:.2f}ms"
    )
