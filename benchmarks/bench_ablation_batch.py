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

Each case is timed here: one warmup burst, then eight timed bursts on
``perf_counter``, summarised by p50 / p95 (no trimming).  The pytest entry
point prints the table and archives
``benchmarks/results/bench_policy_ablation.json`` (the environment
fingerprint, every sample and both percentiles per case); the summary table
lives in docs/TUNING.md.  The same two comparisons run on every benchmark
pass as the ``policy.*`` probes of ``benchmarks/e2e``; this script is the
instrument of the pending batch / steal-default trials (ROADMAP item 5(c)),
which need the intermediate ``batch_max`` and the per-sample distribution.
"""

from __future__ import annotations

import json
import pathlib
import time

from repro.bench import environment_fingerprint
from repro.core import PjRuntime
from repro.obs.metrics import percentile

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

BATCH_BURST = 200          # no-op regions per timed batching sample
STEAL_BURST = 40           # sleeping regions per timed stealing sample
STEAL_SLEEP_S = 0.001
WARMUP, REPEATS = 1, 8


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


def _steal_case(steal: bool):
    """Burst to a 1-lane worker with an idle 1-lane sibling (thief or not)."""
    rt = PjRuntime()
    rt.create_worker("prime", 1, steal=steal)
    rt.create_worker("wing", 1, steal=steal)
    _burst(rt, "prime", _nap, 4)  # warm both pools
    op = lambda: _burst(rt, "prime", _nap, STEAL_BURST)  # noqa: E731
    return op, lambda: rt.shutdown(wait=False)


CASES = {
    "ablation_batch_b1": lambda: _batch_case(1),
    "ablation_batch_b4": lambda: _batch_case(4),
    "ablation_batch_b16": lambda: _batch_case(16),
    "ablation_steal_off": lambda: _steal_case(False),
    "ablation_steal_on": lambda: _steal_case(True),
}


def _samples_ms(setup) -> list[float]:
    """WARMUP untimed bursts, then REPEATS timed ones (ms per burst)."""
    op, cleanup = setup()
    try:
        for _ in range(WARMUP):
            op()
        samples = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            op()
            samples.append((time.perf_counter() - t0) * 1e3)
        return samples
    finally:
        cleanup()


def test_ablation_policies(capsys):
    """Print the policy-ablation table; archive its JSON document."""
    cases = {}
    for name, setup in CASES.items():
        samples = _samples_ms(setup)
        cases[name] = {"samples_ms": [round(s, 4) for s in samples],
                       "p50_ms": round(percentile(samples, 50), 4),
                       "p95_ms": round(percentile(samples, 95), 4)}

    header = f"{'case':<20} {'p50 (ms/burst)':>15} {'p95 (ms/burst)':>15} {'vs default':>11}"
    lines = [
        "Ablation: adaptive runtime policies (real runtime, see docs/TUNING.md)",
        f"batching: {BATCH_BURST} no-op regions, 1 lane; "
        f"stealing: {STEAL_BURST}x{STEAL_SLEEP_S * 1000:.0f}ms sleeps, 1+1 lanes",
        header,
        "-" * len(header),
    ]
    for name, case in cases.items():
        ref = cases["ablation_batch_b1" if "batch" in name else "ablation_steal_off"]
        lines.append(
            f"{name:<20} {case['p50_ms']:>15.2f} {case['p95_ms']:>15.2f} "
            f"{ref['p50_ms'] / case['p50_ms']:>10.2f}x"
        )

    doc = {"benchmark": "policy_ablation", "env": environment_fingerprint(),
           "protocol": {"warmup": WARMUP, "repeats": REPEATS}, "cases": cases}
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "bench_policy_ablation.json").write_text(
        json.dumps(doc, indent=2) + "\n"
    )
    with capsys.disabled():
        print("\n" + "\n".join(lines))

    # Sanity floor, not a perf gate: with sleeping bodies even one stolen
    # region overlaps wall time, so stealing must beat the idle sibling.
    off = cases["ablation_steal_off"]["p50_ms"]
    on = cases["ablation_steal_on"]["p50_ms"]
    assert on < off, (
        f"stealing burst p50 {on:.2f}ms did not beat steal-off p50 {off:.2f}ms"
    )
