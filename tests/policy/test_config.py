"""The policy ICVs: defaults, and inheritance at ``create_worker`` time."""

from __future__ import annotations

from repro.core.runtime import PjRuntime


def test_defaults_are_off():
    rt = PjRuntime()
    try:
        assert rt.steal_var is False
        assert rt.batch_max_var == 1
        plain = rt.create_worker("plain", 1)
        assert plain.steal_enabled is False
        assert plain.batch_max == 1
    finally:
        rt.shutdown(wait=False)


def test_create_worker_resolves_icvs_and_per_call_overrides():
    rt = PjRuntime()
    rt.batch_max_var = 4
    rt.steal_var = True
    try:
        inherited = rt.create_worker("inherited", 1)
        assert inherited.batch_max == 4
        assert inherited.steal_enabled is True
        assert inherited.pool_size == 1
        # Per-call arguments beat the ICVs.
        overridden = rt.create_worker("overridden", 1, steal=False, batch_max=1)
        assert overridden.batch_max == 1
        assert overridden.steal_enabled is False
    finally:
        rt.shutdown(wait=False)
