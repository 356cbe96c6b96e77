"""Structure gate: the logical barrier exists exactly once.

Algorithm 1 lines 13-16 (``while B is not finished:
T.processAnotherEventHandler()``) is ``VirtualTarget.pump_until``.  ``await``
(``PjRuntime._logical_barrier``), a member thread's ``wait(tag)``
(``PjRuntime.wait_tag``), the modal dialog (``ModalDialog.show_modal``) and
manual pumping once each spelled that loop themselves (OpenMP's
``taskwait`` kept a copy until it too became a ``pump_until``), and the copies
drifted: one never woke its pumper, two traced no ``PUMP_STEAL``, a blown
deadline raised four differently-shaped errors.  This test keeps the copies
from growing back.
"""

from __future__ import annotations

import ast
import inspect
import textwrap

import pytest

from repro.core.runtime import PjRuntime
from repro.core.tags import TagRegistry
from repro.eventloop.gui import ModalDialog
from repro.openmp.tasking import taskwait

from .test_single_queue_discipline import SRC, TARGETS, _hits

#: Their pumps are models of the runtime (a discrete-event simulator, the
#: explorer's scheduled actors), not callers of it.
MODELS = ("sim", "explore")
BARRIER = (TARGETS, "VirtualTarget.pump_until")
#: The one allowed neighbour: pump-until-empty, no predicate, no deadline.
DRAIN = (TARGETS, "VirtualTarget.drain")


def _calls(node: ast.AST, method: str) -> bool:
    return any(
        isinstance(n, ast.Call)
        and isinstance(n.func, ast.Attribute)
        and n.func.attr == method
        for n in ast.walk(node)
    )


def _pump_loops() -> dict[tuple[str, str], ast.While]:
    """Every ``while`` under ``src/repro`` whose body calls ``process_one``,
    keyed by (file, qualified name of the enclosing function)."""
    found = {}

    def visit(node: ast.AST, path: str, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, path, scope + (child.name,))
                continue
            if isinstance(child, ast.While) and _calls(child, "process_one"):
                found[path, ".".join(scope)] = child
            visit(child, path, scope)

    for file in sorted(SRC.rglob("*.py")):
        rel = file.relative_to(SRC)
        if rel.parts[0] not in MODELS:
            visit(ast.parse(file.read_text()), rel.as_posix(), ())
    return found


def test_one_predicate_pump_loop_and_it_is_pump_until():
    loops = _pump_loops()
    assert set(loops) == {BARRIER, DRAIN}
    # pump_until exits on its caller's predicate...
    assert "predicate" in ast.dump(loops[BARRIER].test)
    # ...drain has none: it runs the queue dry.
    test = loops[DRAIN].test
    assert isinstance(test, ast.Constant) and test.value is True


@pytest.mark.parametrize("caller", [
    PjRuntime._logical_barrier, PjRuntime.wait_tag, ModalDialog.show_modal, taskwait,
])
def test_every_barrier_site_calls_the_one_loop(caller):
    tree = ast.parse(textwrap.dedent(inspect.getsource(caller)))
    assert _calls(tree, "pump_until")
    assert not _calls(tree, "process_one")
    assert not [n for n in ast.walk(tree) if isinstance(n, (ast.While, ast.For))]


def test_tag_registry_does_not_pump():
    assert "helper" not in inspect.signature(TagRegistry.wait).parameters
    tree = ast.parse(textwrap.dedent(inspect.getsource(TagRegistry)))
    assert not [n for n in ast.walk(tree) if isinstance(n, ast.While)]


def test_refusal_and_steal_trace_are_stated_once():
    # The "cannot pump" verdict on a non-reentrant loop, read off the flag...
    assert _hits(r"if not \w+\.supports_pumping\b") == {TARGETS: 1}
    # ...the barrier-mode PUMP_STEAL, and the dialog's private poll constant.
    assert _hits(r'_trace_steal\([^)]*"barrier"') == {TARGETS: 1}
    assert "0.02" not in inspect.getsource(ModalDialog)
