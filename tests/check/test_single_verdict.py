"""Structure gate: every recorded trace gets one verdict.

Each ``repro check`` phase and each ``repro explore`` run once spelled out
its own verification: stop the session, test for overflow, tamper, verify,
cross-check, quiesce and deduplicate.  There were five copies, three
deduplicators, two tamper tables that drifted apart, and the process-kill
and agent-kill phases were one scenario written twice.  Now the verdict is
:func:`repro.check.invariants.verify_session`, the tamper table lives in
:mod:`repro.check.faults`, and both kill rows are
:func:`repro.check.run_remote_phase`.  This test keeps the copies from
growing back.
"""

from __future__ import annotations

import ast
import collections
import inspect
import pathlib

import repro.check
import repro.explore
from repro.check import invariants

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


def _trees() -> dict[str, ast.Module]:
    return {str(p.relative_to(SRC)): ast.parse(p.read_text())
            for p in sorted(SRC.rglob("*.py"))}


def _called(node: ast.Call) -> str | None:
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_each_trace_check_has_one_call_site_and_it_is_the_verdict():
    checks = ("verify_events", "crosscheck_outcomes")
    sites = collections.defaultdict(list)
    for path, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _called(node) in checks:
                sites[_called(node)].append(path)
    assert sites == {name: ["check/invariants.py"] for name in checks}
    verdict = inspect.getsource(invariants.verify_session)
    assert all(f"{name}(" in verdict for name in checks)


def test_no_private_deduplicator():
    defs = [(path, node.name) for path, tree in _trees().items()
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "_dedup"]
    assert not defs


def test_the_tamper_table_is_defined_once_and_shared():
    assigned = []
    for path, tree in _trees().items():
        for node in ast.walk(tree):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            if any(isinstance(t, ast.Name) and t.id == "TAMPERS" for t in targets):
                assigned.append(path)
    assert assigned == ["check/faults.py"]
    assert repro.explore.TAMPERS is repro.check.TAMPERS


def test_the_kill_phase_is_one_function():
    assert "run_remote_phase" in repro.check.__all__
    assert not {"run_dist_phase", "run_cluster_phase"} & set(repro.check.__all__)
