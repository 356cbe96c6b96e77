"""The scheduling policies are off unless ``create_worker`` asks for them."""

from __future__ import annotations

from repro.core.runtime import PjRuntime


def test_defaults_are_off():
    rt = PjRuntime()
    try:
        plain = rt.create_worker("plain", 1)
        assert plain.steal_enabled is False
        assert plain.batch_max == 1
    finally:
        rt.shutdown(wait=False)
