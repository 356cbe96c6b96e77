"""docs/TUNING.md must cover every knob the runtime actually has.

The tuning guide claims to be the single reference for ICVs and
environment variables.  This gate makes the claim structural: every
``REPRO_*`` variable mentioned anywhere under ``src/`` and every ``*_var``
ICV defined on ``PjRuntime`` must appear in TUNING.md — a new knob cannot
land without its documentation row.
"""

from __future__ import annotations

import pathlib
import re

REPO = pathlib.Path(__file__).resolve().parents[1]
TUNING = (REPO / "docs" / "TUNING.md").read_text()

_ENV = re.compile(r"\bREPRO_[A-Z_]+\b")
_ICV_ASSIGN = re.compile(r"self\.([a-z][a-z0-9_]*_var)\b")
_ICV_PROP = re.compile(r"def ([a-z][a-z0-9_]*_var)\(")


def _source_env_vars() -> set[str]:
    found: set[str] = set()
    for path in (REPO / "src").rglob("*.py"):
        found.update(_ENV.findall(path.read_text()))
    return found


def _runtime_icvs() -> set[str]:
    text = (REPO / "src" / "repro" / "core" / "runtime.py").read_text()
    return set(_ICV_ASSIGN.findall(text)) | set(_ICV_PROP.findall(text))


def test_every_env_knob_is_documented():
    missing = sorted(v for v in _source_env_vars() if v not in TUNING)
    assert not missing, (
        "environment variables used in src/ but absent from docs/TUNING.md: "
        + ", ".join(missing)
    )


def test_every_runtime_icv_is_documented():
    icvs = _runtime_icvs()
    assert icvs == {"default_target_var"}, (
        "PjRuntime has one ICV; a new one needs a caller outside tests/"
    )
    missing = sorted(v for v in icvs if f"`{v}`" not in TUNING)
    assert not missing, (
        "PjRuntime ICVs absent from docs/TUNING.md: " + ", ".join(missing)
    )


def test_policy_env_names_match_the_code():
    # The code reads no environment twin for the policy arguments, so the guide
    # must not offer one: every variable it names is one src/ reads.
    stale = sorted(set(_ENV.findall(TUNING)) - _source_env_vars())
    assert not stale, f"docs/TUNING.md documents variables nothing reads: {stale}"


def test_policy_events_are_documented_in_both_guides():
    observability = (REPO / "docs" / "OBSERVABILITY.md").read_text()
    for doc, path in ((TUNING, "TUNING.md"), (observability, "OBSERVABILITY.md")):
        assert "PUMP_STEAL" in doc, f"PUMP_STEAL missing from docs/{path}"
    # The attribution payload keys are API: exporters and the checker read
    # them, so both guides must name the dict shape.
    for key in ('"victim"', '"thief"', '"lane"', '"mode"'):
        assert key in TUNING, f"PUMP_STEAL arg key {key} missing from TUNING.md"
