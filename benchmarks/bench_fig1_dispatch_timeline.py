"""Figure 1 — single- vs multi-threaded event dispatching timelines.

Paper Figure 1: with single-threaded processing, request 2's handling is
"delayed until the handling of previous events are completed, resulting in
an unresponsive application"; multi-threaded processing (thread pool)
overlaps the handlers and restores responsiveness.

This benchmark replays the figure's scenario — three closely-spaced events
with long handlers — and prints both timelines.
"""

from __future__ import annotations

from repro.sim import figure1

HANDLER_S = 0.200  # the figure's handler; events arrive every 50 ms


def test_fig1_dispatch_timelines(benchmark, report):
    data, lines = benchmark.pedantic(figure1, rounds=1, iterations=1)
    report("fig1_dispatch_timeline", lines)
    seq, pooled = data["sequential"], data["executor"]

    s1, s2, s3 = seq.response.samples
    # Single-threaded: each event queues behind the previous handler.
    assert s2 > s1 + 0.5 * HANDLER_S
    assert s3 > s2 + 0.5 * HANDLER_S
    # Multi-threaded: handlers overlap; later events see no such pile-up.
    p1, p2, p3 = pooled.response.samples
    assert p3 < p1 + 0.5 * HANDLER_S
    # Mean over the 3 events: sequential ≈ t, 2t, 3t; pooled ≈ t, t, t.
    assert pooled.response.mean < 0.7 * seq.response.mean
