"""``repro.obs`` — structured event tracing and metrics for the runtime.

The observability layer of the reproduction: a typed event taxonomy
(:mod:`~repro.obs.events`), lock-free per-thread ring-buffer recorders
behind one process-global session (:mod:`~repro.obs.recorder`), Chrome
trace-event / plain-text exporters (:mod:`~repro.obs.exporters`), and
latency histograms computed from the event stream
(:mod:`~repro.obs.metrics`).

Quick use::

    import repro.obs as obs

    obs.enable()
    ... run the workload ...
    obs.disable()
    obs.write_chrome_trace("trace.json", obs.session().events())
    print(obs.format_metrics(obs.compute_metrics(obs.session().events())))

Or from the command line::

    python -m repro trace examples/traced_gui_pipeline.py -o trace.json

Knobs: :func:`enable` / :func:`disable`, or the environment variables
``REPRO_TRACE=1`` / ``REPRO_TRACE_BUFFER=<n>``.
See ``docs/OBSERVABILITY.md`` for the full taxonomy and Perfetto workflow.
"""

from .events import EventKind, TraceEvent, now_ns
from .exporters import to_chrome_trace, to_text_timeline, write_chrome_trace
from .metrics import (
    LatencyStats,
    TargetMetrics,
    TraceMetrics,
    compute_metrics,
    format_metrics,
)
from .recorder import (
    DEFAULT_BUFFER_SIZE,
    NullRecorder,
    RingRecorder,
    TraceSession,
    disable,
    emit,
    enable,
    is_enabled,
    session,
)

__all__ = [
    "EventKind",
    "TraceEvent",
    "now_ns",
    "RingRecorder",
    "NullRecorder",
    "TraceSession",
    "DEFAULT_BUFFER_SIZE",
    "session",
    "enable",
    "disable",
    "is_enabled",
    "emit",
    "to_chrome_trace",
    "write_chrome_trace",
    "to_text_timeline",
    "LatencyStats",
    "TargetMetrics",
    "TraceMetrics",
    "compute_metrics",
    "format_metrics",
]
