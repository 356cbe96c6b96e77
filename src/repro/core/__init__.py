"""Core of the reproduction: the event-driven virtual-target model for OpenMP.

Implements the paper's primary contribution — the extended ``target``
directive with ``virtual(...)`` targets and the ``nowait`` / ``name_as`` +
``wait`` / ``await`` scheduling clauses — on real Python threads, following
Algorithm 1 and Table II of the paper.
"""

from .api import (
    on_target,
    run_on,
    shutdown_all,
    start_edt,
    virtual_target_create_cluster,
    virtual_target_create_process_worker,
    virtual_target_create_worker,
    virtual_target_register_edt,
    wait_for,
)
from .directives import (
    DataClause,
    DataSharing,
    SchedulingMode,
    TargetDirective,
    TargetKind,
    TargetProperty,
)
from .errors import (
    AwaitTimeoutError,
    DirectiveSyntaxError,
    PyjamaError,
    QueueFullError,
    RegionCancelledError,
    RegionFailedError,
    RemoteExecutionError,
    RuntimeStateError,
    SerializationError,
    TargetExistsError,
    TargetShutdownError,
    UnknownTargetError,
    WorkerCrashedError,
)
from .region import CancelToken, RegionState, TargetRegion, current_region
from .runtime import PjRuntime, default_runtime, reset_default_runtime, set_default_runtime
from .tags import TagRegistry
from .targets import (
    REJECTION_POLICIES,
    EdtTarget,
    VirtualTarget,
    WorkerTarget,
    current_target,
)

__all__ = [
    # api
    "on_target", "run_on", "shutdown_all", "start_edt",
    "virtual_target_create_worker", "virtual_target_create_process_worker",
    "virtual_target_create_cluster", "virtual_target_register_edt", "wait_for",
    # directives
    "DataClause", "DataSharing", "SchedulingMode", "TargetDirective",
    "TargetKind", "TargetProperty",
    # errors
    "AwaitTimeoutError", "DirectiveSyntaxError", "PyjamaError",
    "QueueFullError", "RegionCancelledError", "RegionFailedError",
    "RemoteExecutionError", "RuntimeStateError", "SerializationError",
    "TargetExistsError", "TargetShutdownError", "UnknownTargetError",
    "WorkerCrashedError",
    # region / runtime / targets
    "CancelToken", "RegionState", "TargetRegion", "current_region",
    "PjRuntime", "default_runtime",
    "reset_default_runtime", "set_default_runtime", "TagRegistry",
    "EdtTarget", "VirtualTarget", "WorkerTarget", "current_target",
    "REJECTION_POLICIES",
]
