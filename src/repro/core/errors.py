"""Exception hierarchy for the Pyjama-style virtual-target runtime.

The paper's runtime (Section IV-B) is mostly silent about failure modes; we
make them explicit so that library users get actionable errors instead of
deadlocks or silent drops.
"""

from __future__ import annotations


def _rebuild(cls: type, args: tuple, state: dict, cause: BaseException | None) -> "PyjamaError":
    exc = cls.__new__(cls, *args)
    exc.args = args  # an OSError's (AwaitTimeoutError's) __new__ leaves them to __init__
    exc.__dict__.update(state)
    exc.__cause__ = cause
    return exc


class PyjamaError(Exception):
    """Base class for all errors raised by :mod:`repro.core`.

    Pickles as its type, ``args``, attributes and ``__cause__``, rebuilt
    without ``__init__``: a subclass's ``__init__`` takes the parts its
    message is made of, not the message, so calling it again would wrap
    the message twice or fail for want of arguments.  A remote lane ships
    a region's error this way.
    """

    def __reduce__(self):
        return _rebuild, (type(self), self.args, self.__dict__, self.__cause__)


class DirectiveSyntaxError(PyjamaError):
    """An ``#omp`` directive could not be parsed.

    Carries optional source position information so the source-to-source
    compiler can point at the offending pragma.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UnknownTargetError(PyjamaError):
    """A directive referenced a virtual target name that was never registered."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(
            f"unknown virtual target {name!r}; register it first with "
            "virtual_target_create_worker() or virtual_target_register_edt()"
        )


class TargetExistsError(PyjamaError):
    """A virtual target name was registered twice."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"virtual target {name!r} is already registered")


class TargetShutdownError(PyjamaError):
    """A region was posted to a virtual target that has been shut down."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"virtual target {name!r} has been shut down")


class RuntimeStateError(PyjamaError):
    """The runtime was used in a way that violates its lifecycle.

    Examples: ``name_as`` without a tag, or pumping an EDT from a foreign
    thread.
    """


class RegionFailedError(PyjamaError):
    """Waiting on a target region whose body raised.

    The original exception is available as ``__cause__`` (and ``.cause``),
    mirroring how ``concurrent.futures`` re-raises on ``result()``.
    """

    def __init__(self, region_name: str, cause: BaseException):
        self.region_name = region_name
        self.cause = cause
        super().__init__(f"target region {region_name!r} raised {cause!r}")
        self.__cause__ = cause


class RegionCancelledError(RegionFailedError):
    """Waiting on a target region that was cancelled before it could run.

    Subclasses :class:`RegionFailedError` so ``except RegionFailedError``
    keeps catching every unsuccessful wait; the cancellation reason (e.g. the
    :class:`TargetShutdownError` of a drained target) is the ``cause``.
    """

    def __init__(self, region_name: str, cause: BaseException | None = None):
        super().__init__(
            region_name, cause if cause is not None else RuntimeError("region was cancelled")
        )


class QueueFullError(PyjamaError):
    """A region was posted to a virtual target whose bounded queue is full.

    Raised by the ``reject`` rejection policy, and by the ``block`` policy
    when the post's own timeout elapses before space frees up.

    Structured for admission-control layers (e.g. an HTTP server mapping the
    rejection to a 503): ``name`` is the refusing target, ``capacity`` its
    bound, and ``policy`` the rejection policy that produced the refusal —
    nothing has to be parsed back out of the message.
    """

    def __init__(self, name: str, capacity: int, policy: str | None = None):
        self.name = name
        self.capacity = capacity
        self.policy = policy
        detail = f"capacity {capacity}"
        if policy is not None:
            detail += f", policy {policy!r}"
        super().__init__(
            f"virtual target {name!r} rejected a post: bounded queue is full "
            f"({detail})"
        )


class AwaitTimeoutError(PyjamaError, TimeoutError):
    """A waiting dispatch (default wait or ``await`` logical barrier) blew
    past its deadline.

    Carries a ``diagnostics`` dump (queue depths, member threads, counters)
    taken at expiry so stuck systems can be debugged post-mortem.  Also a
    ``TimeoutError`` so generic timeout handling keeps working.
    """

    def __init__(self, message: str, diagnostics: str = ""):
        self.diagnostics = diagnostics
        if diagnostics:
            message = f"{message}\n{diagnostics}"
        super().__init__(message)


class WorkerCrashedError(PyjamaError):
    """A process- or cluster-backed virtual target lost a worker.

    Raised to waiters of any region that was in flight on the crashed worker
    — a hard-killed process (or torn cluster connection) cannot report
    results, so the honest outcome is this error, not a hang.  Carries
    enough context (worker index, pid, exit code, restart budget) for the
    lane's crash handling to be auditable.
    """

    def __init__(
        self,
        target_name: str,
        worker_id: int,
        *,
        pid: int | None = None,
        exitcode: int | None = None,
        region_name: str | None = None,
        detail: str | None = None,
    ):
        self.target_name = target_name
        self.worker_id = worker_id
        self.pid = pid
        self.exitcode = exitcode
        self.region_name = region_name
        bits = [f"worker {worker_id} of target {target_name!r} crashed"]
        if pid is not None:
            bits.append(f"pid={pid}")
        if exitcode is not None:
            bits.append(f"exitcode={exitcode}")
        if region_name is not None:
            bits.append(f"while running region {region_name!r}")
        if detail:
            bits.append(f"({detail})")
        super().__init__(" ".join(bits))


class ProtocolVersionError(PyjamaError):
    """Two ends of a dist/cluster connection speak different wire protocols.

    Raised during the hello handshake when the peer announces a protocol
    version this build does not speak — cluster workers may be started from
    a different checkout than the client, and a silent mismatch would
    surface as undefined behaviour deep inside message dispatch.  Carries
    both versions so deployments can tell which side is stale.
    """

    def __init__(self, ours: int, theirs: int, *, peer: str | None = None):
        self.ours = ours
        self.theirs = theirs
        self.peer = peer
        where = f" from {peer}" if peer else ""
        super().__init__(
            f"wire protocol version mismatch{where}: we speak version {ours}, "
            f"peer speaks version {theirs}; update the older checkout "
            "(repro.dist.wire.PROTOCOL_VERSION)"
        )


class SerializationError(PyjamaError):
    """A payload (or its result) could not cross the process boundary.

    Process-backed targets ship region bodies and results by value; anything
    holding process-local state — locks, sockets, open files, generators —
    cannot be pickled (even by cloudpickle) and is rejected with this error
    instead of a raw :class:`TypeError` from deep inside the pickler.
    """

    def __init__(self, what: str, cause: BaseException | None = None):
        self.cause = cause
        message = (
            f"{what} cannot be serialized for a process target"
            f"{f': {cause!r}' if cause is not None else ''}; "
            "process targets ship work by value — keep payloads to plain "
            "data, module-level functions, and picklable closures"
        )
        super().__init__(message)
        if cause is not None:
            self.__cause__ = cause


class RemoteExecutionError(PyjamaError):
    """A region failed on a worker process with an exception that could not
    itself be pickled back.

    The original traceback (formatted worker-side) is preserved in
    :attr:`remote_traceback` so the failure stays debuggable even though the
    exception object could not make the trip.
    """

    def __init__(self, description: str, remote_traceback: str = ""):
        self.remote_traceback = remote_traceback
        message = f"remote region failed: {description}"
        if remote_traceback:
            message = f"{message}\n--- worker traceback ---\n{remote_traceback}"
        super().__init__(message)
