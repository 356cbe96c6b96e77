"""Every knob has a caller: a value stays settable only if code outside
``tests/`` sets it to something other than its default.

The supervision and serve limits below had no such caller and are now
constants (``RemoteLaneTarget.max_restarts`` / ``heartbeat_misses`` /
``cancel_grace``, each lane strategy's ``open_timeout``, the module
constants of ``repro.serve.server``, the OpenMP thread limit
``repro.openmp.parallel.THREAD_LIMIT``); a test that needs another value
patches the constant.  This gate keeps them, and the runtime ICVs that went
with them, from coming back as arguments.
"""

from __future__ import annotations

import dataclasses
import inspect
import pathlib

import pytest

from repro.cluster import ClusterTarget
from repro.core import PjRuntime, WorkerTarget, api
from repro.core.tags import TagRegistry
from repro.dist import ProcessTarget, RemoteLaneTarget
from repro.eventloop import EventLoop, ExecutorService
from repro.openmp import ICVs, global_icvs, parallel, runtime_api
from repro.serve import ServeConfig

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

REMOVED_PARAMETERS = {
    "max_restarts", "heartbeat_misses", "cancel_grace", "spawn_timeout",
    "connect_timeout", "open_timeout", "daemon", "strict", "raise_on_error",
    "admission_timeout", "max_request_bytes",
}


def test_default_target_is_the_only_icv():
    rt = PjRuntime()
    assert {k for k in vars(rt) if k.endswith("_var")} == {"default_target_var"}
    properties = [
        name for name, value in inspect.getmembers(PjRuntime)
        if name.endswith("_var") and isinstance(value, property)
    ]
    assert properties == []


@pytest.mark.parametrize("callable_", [
    PjRuntime.create_worker,
    PjRuntime.create_process_worker,
    PjRuntime.create_cluster,
    PjRuntime.wait_tag,
    WorkerTarget,
    ProcessTarget,
    ClusterTarget,
    RemoteLaneTarget,
    api.wait_for,
    TagRegistry.wait,
], ids=lambda c: c.__qualname__)
def test_no_removed_parameter_is_back(callable_):
    params = set(inspect.signature(callable_).parameters)
    assert not params & REMOVED_PARAMETERS


@pytest.mark.parametrize("cls", [EventLoop, ExecutorService], ids=lambda c: c.__name__)
def test_eventloop_classes_take_no_queue_options(cls):
    # The baselines' pools are WorkerTargets/EdtTargets built with the
    # defaults; nothing outside tests/ ever bounded them.
    params = set(inspect.signature(cls).parameters)
    assert not params & {"queue_capacity", "rejection_policy"}


def test_serve_config_has_no_removed_field():
    fields = {f.name for f in dataclasses.fields(ServeConfig)}
    assert not fields & REMOVED_PARAMETERS


@pytest.mark.parametrize("name", ["TagError", "require_known", "strict_await"])
def test_removed_name_appears_nowhere_in_src(name):
    hits = [
        str(path.relative_to(SRC)) for path in SRC.rglob("*.py")
        if name in path.read_text()
    ]
    assert hits == []


def test_parallel_takes_no_icv_set():
    # Every region copies the global ICVs; nothing passed its own set.
    assert list(inspect.signature(parallel).parameters) == ["body", "num_threads", "if_clause"]


def test_every_openmp_icv_has_its_omp_set_routine():
    # The one caller an ICV needs: its omp_set_* routine.  dyn_var had none
    # (nothing read it) and thread_limit_var none (now THREAD_LIMIT).
    setters = [
        (runtime_api.omp_set_num_threads, (3,)),
        (runtime_api.omp_set_nested, (False,)),
        (runtime_api.omp_set_max_active_levels, (2,)),
        (runtime_api.omp_set_schedule, ("dynamic", 5)),
    ]
    icvs = global_icvs()
    saved = icvs.copy()
    try:
        for setter, args in setters:
            setter(*args)
        moved = {
            f.name for f in dataclasses.fields(ICVs)
            if getattr(icvs, f.name) != getattr(saved, f.name)
        }
    finally:
        for f in dataclasses.fields(ICVs):
            setattr(icvs, f.name, getattr(saved, f.name))
    assert moved == {f.name for f in dataclasses.fields(ICVs)}
