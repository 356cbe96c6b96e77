"""End-to-end benchmark of the event-driven OpenMP runtime (BENCHMARK.json).

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one pass of one workload and prints, as the last line of stdout, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` every end-to-end metric of BENCHMARK.json, measured with
tracing off; with ``--trace 1`` every per-layer metric, from a pass that
records spans around the benchmark's own calls into each layer and then
probes each layer's public functions.  Without ``--workload`` it runs all
six; without ``--trace`` it makes the untraced pass and then the traced one.
It exits non-zero when any operation failed.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import random
import sys
import threading
import time

# Spawn-context pool workers re-import this file as their main module, so
# nothing heavy is imported at the top: repro and the sibling modules are
# imported by the functions that use them, after _bootstrap().
HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parents[1]
RESULTS = HERE / "results"

# Shares of --seconds.  Untraced: warm-up (discarded), open slices, closed slices.
WARM, OPEN, CLOSED = 0.10, 0.50, 0.40
ROUNDS = 9
# Traced: the closed share is spent twice a round (spans off, then on);
# layers.py budgets the rest of --seconds for its probes.
T_WARM, T_OPEN, T_CLOSED = 0.05, 0.15, 0.10
# Set-ups per untraced pass: MIN_SETUPS before the warm-up, then one more
# before each round while all of them so far cost under SETUP_SHARE of
# --seconds, so that a millisecond set-up is sampled across the run too.
MIN_SETUPS, SETUP_SHARE = 5, 0.03


def _bootstrap() -> None:
    """Measure this checkout's ``src`` under a clean environment."""
    if not (REPO / "src" / "repro").is_dir():
        sys.exit(f"{REPO / 'src' / 'repro'} not found: run from a checkout of the repository")
    sys.path.insert(0, str(REPO / "src"))
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]  # every ICV at its default, on both sides of a comparison


def _phases(workload, seed: int, seconds: float, shares: tuple[float, float, float],
            errors: list[str], recorder=None, before_round=lambda: None) -> dict:
    """Warm-up, then ROUNDS rounds of an open slice and a closed slice, so
    that every metric samples the whole run and not one stretch of it, then
    the whole-run output check.  With a span *recorder*, each round first
    runs a closed slice with spans off, the base of
    ``bench.span_overhead_ratio``, then both slices under it."""
    import loadgen
    import spans
    from repro.bench import percentile
    from workloads import NPROC, confine

    def pct(values: list[float], q: float) -> float:
        return percentile(values, q) if values else 0.0  # every operation failed

    warm, open_s, closed_s = (share * seconds for share in shares)
    open_s, closed_s = open_s / ROUNDS, closed_s / ROUNDS
    rng = random.Random(seed)
    loadgen.run_open(workload.op, loadgen.poisson_offsets(rng, workload.rate, warm / 2), NPROC)
    loadgen.run_closed(workload.closed_op, warm / 2, NPROC)
    confine()  # again: the warm-up made the targets spawn their remaining lanes

    opened, probed, closed = [], [], []
    p50, p90, probe_p90, throughput, untraced = [], [], [], [], []
    for _ in range(ROUNDS):
        before_round()
        confine(*workload.pids(), quiet_for=workload.runtime_in)
        if recorder is not None:
            t0, samples = loadgen.run_closed(workload.closed_op, closed_s, NPROC, errors=errors)
            closed += samples
            untraced.append(loadgen.closed_throughput(samples, t0, closed_s, workload.weight))
            workload.spans = recorder
        offsets = loadgen.poisson_offsets(rng, workload.rate, open_s)
        probing = None
        if workload.probe_rate:
            ticks = loadgen.poisson_offsets(rng, workload.probe_rate, open_s)
            probe: list = []
            probing = threading.Thread(target=lambda: probe.extend(loadgen.run_open(
                workload.probe_op, ticks, 1, first=len(probed), errors=errors)[1]))
            probing.start()
        _, samples = loadgen.run_open(workload.op, offsets, NPROC, first=len(opened) + len(closed),
                                      errors=errors)
        opened += samples
        if probing is not None:
            probing.join()
            probed += probe
            probe_p90.append(pct(loadgen.latencies_ms(probe), 90.0))
        latencies = loadgen.latencies_ms(samples)
        p50.append(pct(latencies, 50.0))
        p90.append(pct(latencies, 90.0))

        t0, samples = loadgen.run_closed(workload.closed_op, closed_s, NPROC,
                                         first=len(opened) + len(closed), errors=errors)
        closed += samples
        throughput.append(loadgen.closed_throughput(samples, t0, closed_s, workload.weight))
        workload.spans = spans.OFF
    try:
        workload.verify_end()
        wrong_at_end = 0
    except ValueError as exc:
        errors.append(str(exc))
        wrong_at_end = 1

    stats = {
        "p50_ms": loadgen.quiet(p50, "lower"),
        "p90_ms": loadgen.quiet(p90, "lower"),
        "throughput_ops_s": loadgen.quiet(throughput, "higher"),
        # Over all rounds: these follow host stalls, so they are reported, not gated.
        "p99_ms": pct(loadgen.latencies_ms(opened), 99.0),
        "late_p99_ms": pct(loadgen.lateness_ms(opened), 99.0),
        "n": sum(s.ok for s in opened),
        "closed_n": sum(s.ok for s in closed) * workload.weight,
        "attempted": len(opened) + len(probed) + len(closed),
        "failed": sum(not s.ok for s in opened + probed + closed) + wrong_at_end,
        "rounds": {"p50_ms": p50, "p90_ms": p90, "throughput_ops_s": throughput},
    }
    if probe_p90:
        stats["edt_probe_p90_ms"] = loadgen.quiet(probe_p90, "lower")
    if untraced:
        stats["span_overhead_ratio"] = stats["throughput_ops_s"] / loadgen.quiet(untraced, "higher")
    return stats


def run_untraced(name: str, seed: int, seconds: float) -> dict:
    """The end-to-end metrics of one workload, spans off."""
    import loadgen
    from workloads import WORKLOADS, confine

    confine()
    workload = WORKLOADS[name](seed)
    errors: list[str] = []
    setups: list[float] = []

    def set_up() -> None:
        if setups:
            workload.teardown()
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)
        confine()

    def set_up_again_if_cheap() -> None:
        if sum(setups) < SETUP_SHARE * seconds:
            set_up()

    try:
        for _ in range(MIN_SETUPS):
            set_up()
        stats = _phases(workload, seed, seconds, (WARM, OPEN, CLOSED), errors,
                        before_round=set_up_again_if_cheap)
        workload.teardown()
    except BaseException:
        workload.teardown(wait=False)
        raise
    return {
        "workload": name, "trace": 0, "attempted": stats["attempted"],
        "failed": stats["failed"], "errors": errors,
        "metrics": {
            "setup_s": loadgen.quiet(setups, "lower"),
            "latency_p50_ms": stats["p50_ms"],
            "throughput_ops_s": stats["throughput_ops_s"],
        },
        # Printed, not part of the contract's result line.
        "notes": {"setups": len(setups), **{k: stats[k] for k in (
            "n", "closed_n", "rounds", "p90_ms", "p99_ms", "late_p99_ms", "edt_probe_p90_ms")
            if k in stats}},
    }


def run_traced(name: str, seed: int, seconds: float) -> dict:
    """The per-layer metrics: the workload under spans, then the probes."""
    import layers
    import spans
    from workloads import WORKLOADS, confine

    confine()
    workload = WORKLOADS[name](seed)
    recorder = spans.SpanRecorder()
    errors: list[str] = []
    try:
        workload.setup()
        confine()
        stats = _phases(workload, seed, seconds, (T_WARM, T_OPEN, T_CLOSED), errors, recorder)
        counts = workload.counts()
        workload.teardown()
    except BaseException:
        workload.teardown(wait=False)
        raise
    RESULTS.mkdir(exist_ok=True)
    spans.write_chrome_trace(RESULTS / f"trace-{name}.json", recorder.spans)

    values = dict.fromkeys((row[0] for row in layers.PER_LAYER), 0.0)
    values.update(layers.probe_all(seconds, seed))
    for key, value in counts.items():
        values[key] += value
    values.update({
        "load.late_p99_ms": stats["late_p99_ms"],
        "load.latency_p90_ms": stats["p90_ms"],
        "load.latency_p99_ms": stats["p99_ms"],
        "load.samples": stats["n"],
        "bench.span_overhead_ratio": stats["span_overhead_ratio"],
    })
    if "edt_probe_p90_ms" in stats:
        # On gui_await the probe is the workload's own, from its open phase.
        values["eventloop.edt_probe_p90_ms"] = stats["edt_probe_p90_ms"]
    failed = stats["failed"] + int(values["dist.respawns"] + values["cluster.reconnects"] > 0)
    return {
        "workload": name, "trace": 1, "attempted": stats["attempted"],
        "failed": failed, "errors": errors, "metrics": values,
        "notes": {"spans": len(recorder.spans), "layer_self_time": spans.layer_table(recorder.spans)},
    }


def _units(spec: dict) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def result_line(result: dict, units: dict[str, str]) -> str:
    """The contract's last line of stdout."""
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()},
    })


def _report(result: dict, units: dict[str, str]) -> None:
    kind = "per-layer (traced pass + probes)" if result["trace"] else "end-to-end (tracing off)"
    print(f"== {result['workload']}: {kind}; attempted {result['attempted']}, "
          f"failed {result['failed']}")
    for key, value in result["metrics"].items():
        print(f"  {key:<32} {value:>14.4f} {units[key]}")
    for key, value in result["notes"].items():
        if key == "layer_self_time":
            for layer, row in sorted(value.items()):
                print(f"  span self time  {layer:<12} {row['self_us_per_op']:>10.1f} us/op "
                      f"over {row['spans']} spans")
        else:
            print(f"  ({key}: {value})")
    for text in result["errors"]:
        print("  FAILED OPERATION:", text.strip().replace("\n", "\n    "), file=sys.stderr)


def _check_repeat(sets: list[list[dict]], spec: dict) -> bool:
    """Does the median of the first half of the sets agree with the median
    of the second half, within each end-to-end bound?"""
    import statistics

    half = len(sets) // 2
    agree = True
    for k, first in enumerate(sets[0]):
        for metric in spec["end_to_end"]:
            a, b = (statistics.median(s[k]["metrics"][metric["name"]] for s in part)
                    for part in (sets[:half], sets[half:]))
            drift = abs(b - a) / a
            agree &= drift <= metric["bound"]
            print(f"  {first['workload']:<20} {metric['name']:<18} {a:>12.4f} {b:>12.4f} "
                  f"{drift:>7.1%} (bound {metric['bound']:.0%}) "
                  f"{'ok' if drift <= metric['bound'] else 'DIFFERS'}")
    return agree


def main(argv: list[str] | None = None) -> int:
    _bootstrap()
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names, help="default: all six")
    ap.add_argument("--seed", type=int, default=0,
                    help="seeds the arrival schedule and the payload bytes")
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                    help="measured seconds per pass")
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="0: end-to-end pass, 1: per-layer pass; default: both")
    ap.add_argument("--quick", action="store_true", help="about 1 s per phase (--seconds 2.5)")
    ap.add_argument("--repeat", type=int, default=1, help="run the whole set this many times")
    ap.add_argument("--check", action="store_true",
                    help="with --repeat N >= 2: exit non-zero when the medians of the first "
                         "and second half of the sets differ by more than a metric's bound")
    args = ap.parse_args(argv)
    seconds = 2.5 if args.quick else args.seconds
    passes = (0, 1) if args.trace is None else (args.trace,)
    selected = [args.workload] if args.workload else names

    from repro.bench import environment_fingerprint
    from repro.core import PjRuntime

    env = environment_fingerprint()
    icvs = {k: v for k, v in vars(PjRuntime()).items() if k.endswith("_var")}
    print(f"host: {env['platform']}, python {env['python']}, usable_cores {env['usable_cores']}")
    print(f"ICVs (REPRO_* scrubbed): {icvs}")

    units = _units(spec)
    sets: list[list[dict]] = []
    for _ in range(args.repeat):
        results = []
        for trace in passes:
            for name in selected:
                result = (run_traced if trace else run_untraced)(name, args.seed, seconds)
                _report(result, units)
                results.append(result)
        sets.append(results)
    failed = sum(r["failed"] for results in sets for r in results)

    RESULTS.mkdir(exist_ok=True)
    (RESULTS / "latest.json").write_text(json.dumps(
        {"env": env, "icvs": icvs, "seed": args.seed, "seconds": seconds, "sets": sets},
        indent=1, default=str))
    agree = True
    if args.check and args.repeat > 1:
        print("== repeat check: median of the first half of the sets vs the second half")
        agree = _check_repeat([[r for r in rs if not r["trace"]] for rs in sets], spec)
    # The contract's result line: the last pass made (the only one when the
    # driver names a workload and a pass).
    print(result_line(sets[-1][-1], units))
    return 0 if failed == 0 and agree else 1


# ------------------------------------------------------------- the supervisor
#
# A process the benchmark starts may outlive it however carefully main()
# tears down: multiprocessing's resource tracker only ends once its parent
# has exited (seen a few ms later, still running or a zombie), and the
# workers of a killed server subprocess are reaped by whoever inherits them.
# So the command itself is a supervisor that runs main() in a child, adopts
# every orphan among the child's descendants, and returns only when all of
# them have ended and been waited for.

_SUPERVISED = "E2E_BENCH_SUPERVISED"
_PR_SET_CHILD_SUBREAPER = 36
ORPHAN_GRACE = 5.0  # seconds after main() exits before its survivors are killed


def _children_of(pid: int) -> list[int]:
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = pathlib.Path("/proc", entry, "stat").read_text()
            except OSError:
                continue  # ended meanwhile
            if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
                found.append(int(entry))
    return found


def supervise(argv: list[str]) -> int:
    """Run ``main(argv)`` in a child process; return its exit code once no
    process it started, directly or not, is left."""
    import ctypes
    import signal

    if ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        sys.exit(f"prctl(PR_SET_CHILD_SUBREAPER): {os.strerror(ctypes.get_errno())}")
    sys.stdout.flush()
    child = os.spawnve(os.P_NOWAIT, sys.executable, [sys.executable, __file__, *argv],
                       {**os.environ, _SUPERVISED: "1"})
    code, kill_at = None, 0.0

    def forward(signum: int, _frame: object) -> None:
        if code is None:  # else: already reaping what main() left
            os.kill(child, signum)

    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, forward)
    while True:
        try:
            pid, status = os.waitpid(-1, 0 if code is None else os.WNOHANG)
        except ChildProcessError:
            return code if code is not None else 1
        if pid == child:
            code = os.waitstatus_to_exitcode(status)
            code = code if code >= 0 else 1  # killed by a signal
            kill_at = time.monotonic() + ORPHAN_GRACE
        elif pid == 0:
            if time.monotonic() >= kill_at:
                # Their own children are adopted, and killed, on a later turn.
                for orphan in _children_of(os.getpid()):
                    os.kill(orphan, signal.SIGKILL)
            time.sleep(0.005)


if __name__ == "__main__":
    sys.exit(main() if os.environ.get(_SUPERVISED) else supervise(sys.argv[1:]))
