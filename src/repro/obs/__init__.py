"""``repro.obs`` — structured event tracing and metrics for the runtime.

The observability layer of the reproduction: a typed event taxonomy
(:mod:`~repro.obs.events`), lock-free per-thread recorders behind one
process-global session (:mod:`~repro.obs.recorder`), Chrome trace-event /
plain-text exporters (:mod:`~repro.obs.exporters`), and latency histograms
computed from the event stream (:mod:`~repro.obs.metrics`).

An event is a plain tuple in its thread's bounded ``collections.deque``
until :meth:`TraceSession.events` reads it; that read is the one place a
:class:`TraceEvent` is built, and it names each region's events from the
label the region's first event carried.

Quick use::

    import repro.obs as obs

    obs.enable()
    ... run the workload ...
    obs.disable()
    obs.write_chrome_trace("trace.json", obs.session().events())
    print(obs.format_metrics(obs.compute_metrics(obs.session().events())))

Or from the command line::

    python -m repro trace examples/traced_gui_pipeline.py -o trace.json

Knobs: :func:`enable` / :func:`disable` (``buffer_size=`` sizes each
thread's ring), or the environment variable ``REPRO_TRACE=1``.
See ``docs/OBSERVABILITY.md`` for the full taxonomy and Perfetto workflow.
"""

from .. import _reexport

_EXPORTS = {
    **dict.fromkeys(("EventKind", "TraceEvent", "now_ns"), ".events"),
    **dict.fromkeys((
        "TraceSession", "DEFAULT_BUFFER_SIZE", "session", "enable", "disable",
        "is_enabled", "emit",
    ), ".recorder"),
    **dict.fromkeys(("to_chrome_trace", "write_chrome_trace", "to_text_timeline"), ".exporters"),
    **dict.fromkeys((
        "LatencyStats", "TargetMetrics", "TraceMetrics", "compute_metrics", "format_metrics",
    ), ".metrics"),
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _reexport(globals(), _EXPORTS)
