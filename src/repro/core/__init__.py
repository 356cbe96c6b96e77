"""Core of the reproduction: the event-driven virtual-target model for OpenMP.

Implements the paper's primary contribution — the extended ``target``
directive with ``virtual(...)`` targets and the ``nowait`` / ``name_as`` +
``wait`` / ``await`` scheduling clauses — on real Python threads, following
Algorithm 1 and Table II of the paper.
"""

from .. import _reexport

_EXPORTS = {
    **dict.fromkeys((
        "on_target", "run_on", "shutdown_all", "start_edt",
        "virtual_target_create_worker", "virtual_target_create_process_worker",
        "virtual_target_create_cluster", "virtual_target_register_edt", "wait_for",
    ), ".api"),
    **dict.fromkeys((
        "DataClause", "DataSharing", "SchedulingMode", "TargetDirective",
        "TargetKind", "TargetProperty",
    ), ".directives"),
    **dict.fromkeys((
        "AwaitTimeoutError", "DirectiveSyntaxError", "PyjamaError",
        "QueueFullError", "RegionCancelledError", "RegionFailedError",
        "RemoteExecutionError", "RuntimeStateError", "SerializationError",
        "TargetExistsError", "TargetShutdownError", "UnknownTargetError",
        "WorkerCrashedError",
    ), ".errors"),
    **dict.fromkeys(("CancelToken", "RegionState", "TargetRegion", "current_region"), ".region"),
    **dict.fromkeys((
        "PjRuntime", "default_runtime", "reset_default_runtime", "set_default_runtime",
    ), ".runtime"),
    "TagRegistry": ".tags",
    **dict.fromkeys((
        "EdtTarget", "VirtualTarget", "WorkerTarget", "current_target", "REJECTION_POLICIES",
    ), ".targets"),
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _reexport(globals(), _EXPORTS)
