"""The lane server: the process every process lane's worker, and every
loopback cluster agent, is forked from.

One per interpreter, started by the first lane that needs it.  It is
``multiprocessing``'s own fork server loop (``forkserver.main``: a fresh,
``exec``'d, single-threaded interpreter that forks a child per request and
relays its exit code), run by a private :class:`ForkServer` instance whose
command first puts the parent's ``sys.path`` in place and whose preload
list is :mod:`repro.dist.worker` and this module (a lane's ``Process``
pickle names :class:`_LaneProcess`).  Where cloudpickle is installed, the
start-up message :class:`Popen` sends leaves out the parent's main module,
which ``multiprocessing`` would have every worker run again as
``__mp_main__``: a lane needs nothing from it, as cloudpickle ships
everything from ``__main__`` by value.  So a worker goes from ``fork()`` to
``worker_main`` with no import and no user code in between, and a lane's
open is one ``fork()`` plus the handshake, on every open and every restart.
Without cloudpickle, plain pickle names a ``__main__`` function by
reference, so the worker still runs the parent's main module to find it.
``forkserver.main``'s own ``sys_path`` argument is not used: 3.11 accepts
it and ignores it, and a parent that reaches ``repro`` only through
``sys.path.insert`` would get a server that preloads nothing.

Nothing here is process-global in ``multiprocessing``: the stock fork
server and its preload list (``set_forkserver_preload``) stay the
embedder's.  A lane is still a ``multiprocessing.Process``, of
:data:`CONTEXT`, whose :class:`Popen` asks this server instead of the stock
one, so exit codes, ``sentinel``, ``terminate()``, ``join()`` and
``active_children()`` read as under the ``forkserver`` start method.  The
server exits when every holder of its "alive" pipe is gone: the parent and
the children it forked.

:func:`fork_detached` forks a child that is not a lane: a loopback cluster
agent (:func:`repro.cluster.agent.spawn_agent_process`).  It is in no
``active_children()`` and never runs the parent's main module.  It imports
what it runs itself, so the preload list stays the worker's and the
server's boot, which the first process lane pays, does not grow.
"""

from __future__ import annotations

import io
import os
import select
import signal
import socket
import sys
import threading
from multiprocessing import (
    connection, context, forkserver, popen_forkserver, process, reduction, resource_tracker,
    spawn, util,
)

from . import wire

__all__ = ["CONTEXT", "Popen", "fork_detached"]


class _LaneServer(forkserver.ForkServer):
    """This interpreter's lane server: a private ``ForkServer``."""

    def __init__(self) -> None:
        super().__init__()
        # This instance's list only; a worker unpickles a _LaneProcess.
        self._preload_modules = ["repro.dist.worker", __name__]
        if hasattr(os, "register_at_fork"):  # POSIX, where the server runs
            os.register_at_fork(after_in_child=self._forget)

    def _forget(self) -> None:
        """In a child made by ``os.fork()``: the server is the parent's, so
        the child starts its own; closing the copy of the "alive" pipe keeps
        the parent's server from outliving the parent."""
        self._lock = threading.Lock()
        if self._forkserver_alive_fd is not None:
            os.close(self._forkserver_alive_fd)
        self._forkserver_address = self._forkserver_alive_fd = self._forkserver_pid = None

    def ensure_running(self) -> None:
        """``ForkServer.ensure_running`` with a command that sets
        ``sys.path`` before ``forkserver.main`` preloads."""
        with self._lock:
            resource_tracker.ensure_running()
            if self._forkserver_pid is not None:
                try:
                    alive = os.waitpid(self._forkserver_pid, os.WNOHANG)[0] == 0
                except ChildProcessError:  # reaped by someone else
                    alive = False
                if alive:
                    return
                os.close(self._forkserver_alive_fd)  # it died: start another
                self._forkserver_address = self._forkserver_alive_fd = None
                self._forkserver_pid = None
            path = [os.fsdecode(entry) or process.ORIGINAL_DIR for entry in sys.path]
            with socket.socket(socket.AF_UNIX) as listener:
                address = connection.arbitrary_address("AF_UNIX")
                listener.bind(address)
                if not util.is_abstract_socket_namespace(address):
                    os.chmod(address, 0o600)
                listener.listen()
                alive_r, alive_w = os.pipe()
                try:
                    command = (f"import sys; sys.path[:] = {path!r}; "
                               "from multiprocessing.forkserver import main; "
                               f"main({listener.fileno()}, {alive_r}, {self._preload_modules!r})")
                    exe = spawn.get_executable()
                    args = [exe, *util._args_from_interpreter_flags(), "-c", command]
                    pid = util.spawnv_passfds(exe, args, [listener.fileno(), alive_r])
                except BaseException:
                    os.close(alive_w)
                    raise
                finally:
                    os.close(alive_r)
            self._forkserver_address = address
            self._forkserver_alive_fd = alive_w
            self._forkserver_pid = pid


_server = _LaneServer()


class Popen(popen_forkserver.Popen):
    """``popen_forkserver.Popen``, asking the lane server."""

    #: Whether the child runs this interpreter's main module again first: a
    #: lane only needs it where plain pickle names ``__main__`` functions by
    #: reference (module docstring).
    _runs_main = not wire.HAVE_CLOUDPICKLE

    def _launch(self, process_obj) -> None:
        prep_data = spawn.get_preparation_data(process_obj._name)
        if not self._runs_main:
            prep_data.pop("init_main_from_path", None)
            prep_data.pop("init_main_from_name", None)
        buf = io.BytesIO()
        context.set_spawning_popen(self)
        try:
            reduction.dump(prep_data, buf)
            reduction.dump(process_obj, buf)
        finally:
            context.set_spawning_popen(None)
        self.sentinel, w = _server.connect_to_new_process(self._fds)
        # A duplicate of the data pipe's write end is the child's sentinel
        # of this process, as under the stock fork server.
        parent_w = os.dup(w)
        self.finalizer = util.Finalize(self, util.close_fds, (parent_w, self.sentinel))
        with open(w, "wb", closefd=True) as f:
            f.write(buf.getbuffer())
        self.pid = forkserver.read_signed(self.sentinel)
        os.set_blocking(self.sentinel, False)
        self._reading = threading.Lock()
        self._exited = select.poll()
        self._exited.register(self.sentinel, select.POLLIN)

    def poll(self, flag: int = os.WNOHANG) -> int | None:
        """One non-blocking check of the sentinel, which turns readable
        when the server writes the exit code, or closes the pipe because it
        died: then the worker, which nothing could reap or signal any more,
        is killed and reads 255, as ``popen_forkserver`` reports it."""
        if self.returncode is None:
            if flag != os.WNOHANG:
                connection.wait([self.sentinel])
            else:
                try:
                    if not self._exited.poll(0):
                        return None
                except RuntimeError:  # polled on another thread: read below
                    pass
            with self._reading:  # the code is read once: a second reader sees EOF
                if self.returncode is None:
                    try:
                        self.returncode = forkserver.read_signed(self.sentinel)
                    except BlockingIOError:
                        return None
                    except EOFError:
                        try:
                            os.kill(self.pid, signal.SIGKILL)
                        except OSError:  # already gone
                            pass
                        self.returncode = 255
        return self.returncode


class _LaneProcess(process.BaseProcess):
    _start_method = "forkserver"  # what the worker's own default context becomes

    @staticmethod
    def _Popen(process_obj):
        return Popen(process_obj)


class _LaneServerContext(context.BaseContext):
    _name = "forkserver"
    Process = _LaneProcess


#: The start context of process lanes when ``DEFAULT_START_METHOD`` is ``forkserver``.
CONTEXT = _LaneServerContext()


class _DetachedPopen(Popen):
    _runs_main = False


def fork_detached(target, *args) -> Popen:
    """Fork ``target(*args)`` from the lane server as a process of its own.

    The child is the server's, not a ``multiprocessing`` child of this
    interpreter: it is in no ``active_children()``, so nothing that joins
    those waits on it, and only the returned :class:`Popen` (``pid``,
    ``poll()``, ``wait()``, ``terminate()``, ``kill()``, ``close()``)
    reaches it.  It never runs this interpreter's main module, with or
    without cloudpickle: *target* and *args* cross by reference in
    ``multiprocessing``'s own pickle.  Inside it,
    ``multiprocessing.parent_process().sentinel`` turns ready once this
    interpreter is gone or the returned :class:`Popen` is closed.
    """
    return _DetachedPopen(_LaneProcess(target=target, args=args))
