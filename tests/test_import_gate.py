"""Import gate: a package import loads only what it uses.

``repro``, ``repro.core``, ``repro.obs`` and ``repro.dist`` re-export their
names lazily, so a process worker — a fresh child that imports
:mod:`repro.dist.worker` — loads the few modules its loops run and not the
parent-side runtime.  Each check runs in a fresh interpreter, since this
one has imported everything already.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

#: What the parent side of the runtime needs and a worker never runs.
NOT_IN_A_WORKER = (
    "repro.core.api",
    "repro.core.runtime",
    "repro.core.targets",
    "repro.core.directives",
    "repro.core.tags",
    "repro.core.injection",
    "repro.obs.exporters",
    "repro.obs.metrics",
    "repro.dist.process_target",
    "repro.dist.remote_target",
    "repro.dist.remote_obs",
    "repro.policy",
    "repro.policy.steal",
    "numpy",
)


def _loaded_after(statement: str) -> set[str]:
    """The modules a fresh interpreter has loaded after *statement*."""
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run(
        [sys.executable, "-c", f"import sys\n{statement}\nprint('\\n'.join(sys.modules))"],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    ).stdout
    return set(out.split())


def test_a_worker_loads_none_of_the_parent_side_runtime():
    loaded = _loaded_after("import repro.dist.worker")
    assert "repro.dist.worker" in loaded
    assert sorted(loaded.intersection(NOT_IN_A_WORKER)) == []


def test_importing_repro_loads_no_subpackage():
    loaded = _loaded_after("import repro")
    assert sorted(m for m in loaded if m.startswith("repro.")) == []


def test_a_reexport_is_the_defining_modules_object():
    loaded = _loaded_after(
        "import repro\n"
        "from repro.core import PjRuntime\n"
        "from repro.core.runtime import PjRuntime as defined\n"
        "assert PjRuntime is defined and repro.core.PjRuntime is defined\n"
        "assert 'PjRuntime' in dir(repro.core) and 'obs' in dir(repro)\n"
        "assert repro.obs.enable is repro.obs.recorder.enable"
    )
    assert "repro.core.runtime" in loaded
