"""What a worker forked from the fork server starts with.

The fork server is a separate interpreter that the first process lane
starts; later workers are forked from it.  Each one gets the parent's
``sys.path`` and working directory as of the moment its lane opens (they
travel with the start-up message), but its environment is the fork
server's: the parent's environment when the server started.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.core import PjRuntime
from repro.core.region import TargetRegion

from . import bodies

pytestmark = pytest.mark.skipif(
    "forkserver" not in multiprocessing.get_all_start_methods(),
    reason="no fork server on this platform",
)

LATE = "REPRO_TEST_SET_AFTER_THE_FORK_SERVER_STARTED"


def test_a_later_worker_follows_path_and_cwd_but_not_the_environment(monkeypatch, tmp_path):
    rt = PjRuntime()
    try:
        rt.create_process_worker("first", 1, start_method="forkserver")
        rt.invoke_target_block("first", TargetRegion(os.getpid), timeout=60.0)
        # The fork server is up.  Change all three, then open another lane.
        monkeypatch.setenv(LATE, "1")
        monkeypatch.chdir(tmp_path)
        monkeypatch.syspath_prepend(str(tmp_path))
        rt.create_process_worker("later", 1, start_method="forkserver")
        variable, cwd, path = rt.invoke_target_block(
            "later", TargetRegion(bodies.start_state, LATE), timeout=60.0
        ).result()
        assert variable is None
        assert cwd == str(tmp_path)
        assert path[0] == str(tmp_path)
    finally:
        rt.shutdown(wait=False)
