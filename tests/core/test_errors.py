"""Every runtime error survives a pickle round trip: a remote lane ships a
region's error to the parent that way."""

from __future__ import annotations

import inspect
import pickle

import pytest

from repro.core import errors

#: One instance of each class, built as the runtime builds it.
EXAMPLES = {
    errors.PyjamaError: lambda: errors.PyjamaError("plain"),
    errors.DirectiveSyntaxError: lambda: errors.DirectiveSyntaxError("bad clause", 3, 7),
    errors.UnknownTargetError: lambda: errors.UnknownTargetError("w"),
    errors.TargetExistsError: lambda: errors.TargetExistsError("w"),
    errors.TargetShutdownError: lambda: errors.TargetShutdownError("w"),
    errors.RuntimeStateError: lambda: errors.RuntimeStateError("name_as without a tag"),
    errors.RegionFailedError: lambda: errors.RegionFailedError("r", ValueError("boom")),
    errors.RegionCancelledError: lambda: errors.RegionCancelledError(
        "r", errors.TargetShutdownError("w")),
    errors.QueueFullError: lambda: errors.QueueFullError("w", 8, "reject"),
    errors.AwaitTimeoutError: lambda: errors.AwaitTimeoutError("await timed out", "depth 3"),
    errors.WorkerCrashedError: lambda: errors.WorkerCrashedError(
        "p", 1, pid=42, exitcode=-9, region_name="r", detail="EOF"),
    errors.ProtocolVersionError: lambda: errors.ProtocolVersionError(4, 3, peer="agent"),
    errors.SerializationError: lambda: errors.SerializationError(
        "payload of region 'r'", AttributeError("Can't get attribute 'MISSING'")),
    errors.RemoteExecutionError: lambda: errors.RemoteExecutionError("ValueError()", "tb"),
}

CLASSES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
           if issubclass(cls, BaseException) and cls.__module__ == errors.__name__]


def _same(a: object, b: object) -> bool:
    if isinstance(a, BaseException):
        return type(a) is type(b) and str(a) == str(b)
    return a == b


def test_every_class_has_an_example():
    assert set(CLASSES) == set(EXAMPLES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_an_error_survives_a_pickle_round_trip(cls):
    exc = EXAMPLES[cls]()
    again = pickle.loads(pickle.dumps(exc))
    assert type(again) is cls
    assert str(again) == str(exc)
    assert again.args == exc.args
    assert vars(again).keys() == vars(exc).keys()
    assert all(_same(getattr(again, k), v) for k, v in vars(exc).items())
    assert _same(again.__cause__, exc.__cause__)
