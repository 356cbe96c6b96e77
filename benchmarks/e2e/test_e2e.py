"""Tests of the benchmark itself.  Not part of tier-1 (``testpaths`` stays
``tests``); run explicitly:

    python -m pytest benchmarks/e2e/test_e2e.py -q
"""

from __future__ import annotations

import json
import pathlib
import socket
import subprocess
import sys
import threading

import pytest

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parents[1]
sys.path[:0] = [str(REPO / "src"), str(HERE)]

import layers  # noqa: E402
import loadgen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------- the contract


def test_spec_names_what_the_code_measures():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        row[:3] for row in layers.PER_LAYER]
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert "setup_s" in [m["name"] for m in SPEC["end_to_end"]]
    for w in SPEC["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert 0 < m["bound"] <= 0.25


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_quick_run_reports_every_metric_and_no_failure(name, trace):
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", name, "--seed", "3",
         "--quick", "--trace", str(trace)],
        cwd=REPO, capture_output=True, text=True, timeout=55)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in want}
    if trace:
        assert (HERE / "results" / f"trace-{name}.json").is_file()
        m = {k: v["value"] for k, v in result["metrics"].items()}
        assert m["serve.healthz_rtt_us"] + m["kernels.encrypt_64B_us"] \
            + m["adapters.as_future_rtt_us"] + m["serve.unattributed_us"] \
            == pytest.approx(m["serve.encrypt_rtt_us"])
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_exits_nonzero_without_a_result_outside_a_checkout(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    import shutil

    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "dispatch_noop", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=55)
    assert proc.returncode != 0
    assert not proc.stdout.strip().startswith("{")


def test_no_process_outlives_the_command():
    # process_large: multiprocessing's resource tracker ends only after its
    # parent, so without the supervisor it is still there when run.py returns.
    # The observer adopts whatever the command orphans: anything it can still
    # wait for after the command returned had outlived it.
    observer = """
import ctypes, os, subprocess, sys
assert ctypes.CDLL(None).prctl(36, 1, 0, 0, 0) == 0  # PR_SET_CHILD_SUBREAPER
code = subprocess.run([sys.executable, "benchmarks/e2e/run.py", "--workload", "process_large",
                       "--seed", "3", "--quick", "--trace", "0"], stdout=subprocess.DEVNULL).returncode
try:
    left = os.waitpid(-1, 0)
except ChildProcessError:
    left = None
sys.exit(f"command exited {code}, left behind {left}" if code or left else 0)
"""
    proc = subprocess.run([sys.executable, "-c", observer], cwd=REPO, capture_output=True,
                          text=True, timeout=55)
    assert proc.returncode == 0, proc.stderr[-2000:]


# ---------------------------------------------------------------------- spans


class FakeClock:
    def __init__(self, now=0):
        self.now = now

    def __call__(self):
        return self.now


def test_span_self_time_subtracts_covered_child_time_once():
    clock = FakeClock()
    rec = spans.SpanRecorder(clock)
    with rec.span("request", "serve", op_id=7) as outer:          # 0..100
        clock.now = 10
        with rec.span("dispatch", "core"):                         # 10..40
            clock.now = 20
            with rec.span("kernel", "kernels"):                    # 20..35
                clock.now = 35
            clock.now = 40
        clock.now = 30
        with rec.span("overlap", "core", parent=outer):            # 30..60 overlaps 10..40
            clock.now = 60
        clock.now = 100
    assert [s.op_id for s in rec.spans] == [7, 7, 7, 7]
    assert [s.parent for s in rec.spans] == [None, 0, 1, 0]
    # request: 100 - |[10,40] U [30,60]| = 50; dispatch: 30 - 15; leaves keep all.
    assert spans.self_times(rec.spans) == [50, 15, 15, 30]
    table = spans.layer_table(rec.spans)
    assert table["core"]["spans"] == 2 and table["core"]["self_ms"] == pytest.approx(45e-6)
    assert table["serve"]["self_us_per_op"] == pytest.approx(0.05)
    events = spans.chrome_trace(rec.spans)["traceEvents"]
    assert [e["cat"] for e in events if e["ph"] == "X"] == ["serve", "core", "kernels", "core"]


def test_off_recorder_records_nothing():
    with spans.OFF.span("x", "core", 1) as here:
        assert here is None
    assert spans.OFF.spans == []


# -------------------------------------------------------------------- loadgen


def test_quiet_is_the_second_best_round_whichever_way_is_better():
    # Seven rounds, two of them hit by a stall, one a lucky fluke.
    p50 = [2.0, 2.1, 9.0, 2.05, 1.2, 30.0, 2.2]
    assert loadgen.quiet(p50, "lower") == 2.0
    assert loadgen.quiet([100, 95, 40, 180, 99, 101, 98], "higher") == 101
    assert loadgen.quiet([5.0], "lower") == 5.0 and loadgen.quiet([], "lower") == 0.0


def test_closed_throughput_counts_the_part_of_an_operation_inside_the_window():
    # 100 ops/s for 2 s, one of them failed, plus one that straddles the end.
    samples = [loadgen.Sample(i, i * 0.01, i * 0.01, (i + 1) * 0.01, ok=i != 7)
               for i in range(200)]
    assert loadgen.closed_throughput(samples, 0.0, 2.0) == pytest.approx(99.5)
    assert loadgen.closed_throughput(samples, 0.0, 2.0, weight=320) == pytest.approx(99.5 * 320)
    straddler = [loadgen.Sample(0, 1.5, 1.5, 2.5, True)]  # half of it is inside
    assert loadgen.closed_throughput(straddler, 0.0, 2.0, weight=500) == pytest.approx(125.0)


def test_open_phase_times_from_due_against_a_slow_server():
    clock = FakeClock(100.0)

    def sleep(seconds):
        clock.now += seconds

    def slow_server(i, slot):  # 30 ms of service for arrivals 10 ms apart
        clock.now += 0.030

    offsets = [0.010 * k for k in range(5)]
    t0, samples = loadgen.run_open(slow_server, offsets, 1, clock=clock, sleep=sleep)
    assert t0 == 100.0
    samples.sort(key=lambda s: s.index)
    assert [round(s.due - t0, 3) for s in samples] == [0.0, 0.01, 0.02, 0.03, 0.04]
    # Arrival k is issued when k-1 completes (30k ms), not when it was due.
    assert [round((s.start - s.due) * 1e3) for s in samples] == [0, 20, 40, 60, 80]
    assert [round(x) for x in loadgen.latencies_ms(samples)] == [30, 50, 70, 90, 110]
    assert [round(x) for x in loadgen.lateness_ms(samples)] == [0, 20, 40, 60, 80]
    samples[0].ok = False  # a failed operation carries no latency
    assert len(loadgen.latencies_ms(samples)) == 4


def test_same_seed_same_schedule():
    import random

    a = loadgen.poisson_offsets(random.Random(5), 300.0, 2.0)
    assert a == loadgen.poisson_offsets(random.Random(5), 300.0, 2.0)
    assert a != loadgen.poisson_offsets(random.Random(6), 300.0, 2.0)
    assert 450 < len(a) < 750 and a == sorted(a) and a[-1] < 2.0


# ------------------------------------------------------------- output checks


def _corrupting_server(listener: socket.socket) -> None:
    conn, _ = listener.accept()
    with conn:
        reader = conn.makefile("rb")
        while True:
            line = reader.readline()
            if not line:
                return
            length = 0
            while line not in (b"\r\n", b""):
                if line.lower().startswith(b"content-length:"):
                    length = int(line.split(b":")[1])
                line = reader.readline()
            body = reader.read(length)
            wrong = bytes(b ^ 1 for b in body)  # right length, wrong bytes
            conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(wrong) + wrong)


def test_a_corrupted_response_counts_as_failed():
    listener = socket.create_server(("127.0.0.1", 0))
    server = threading.Thread(target=_corrupting_server, args=(listener,))
    server.start()
    w = workloads.ServeSmall(seed=0)
    w.payloads = workloads._payloads(0, 64)
    w.expected = [workloads.encrypt_payload(p) for p in w.payloads]
    w.clients = [workloads.HttpClient(*listener.getsockname())]
    errors: list[str] = []
    try:
        _, samples = loadgen.run_open(w.op, [0.0, 0.001, 0.002], 1, errors=errors)
    finally:
        w.teardown()
        server.join(5.0)
        listener.close()
    assert not server.is_alive()
    assert [s.ok for s in samples] == [False, False, False]
    assert "status 200, body matches: False" in errors[0]
