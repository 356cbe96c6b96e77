"""Tests for ModalDialog: real-thread nested EDT pumping."""

import threading
import time

import pytest

from repro.core import PjRuntime
from repro.eventloop import EventLoop, Label, ModalDialog


@pytest.fixture()
def loop():
    rt = PjRuntime()
    l = EventLoop(rt, "edt")
    rt.create_worker("worker", 2)
    yield l
    rt.shutdown(wait=False)


class TestModal:
    def test_show_modal_blocks_handler_until_close(self, loop):
        dialog = ModalDialog(loop)
        order = []
        done = threading.Event()

        def handler():
            result = dialog.show_modal(timeout=5)
            order.append(("returned", result))
            done.set()

        loop.invoke_later(handler)
        time.sleep(0.05)
        assert dialog.is_open
        order.append(("closing",))
        dialog.close("user-choice")
        assert done.wait(timeout=5)
        assert order == [("closing",), ("returned", "user-choice")]

    def test_edt_processes_events_while_modal_open(self, loop):
        """The whole point: the UI stays alive under a modal dialog."""
        dialog = ModalDialog(loop)
        label = Label(loop)
        done = threading.Event()

        def handler():
            dialog.show_modal(timeout=5)
            done.set()

        loop.invoke_later(handler)
        time.sleep(0.02)
        loop.invoke_later(lambda: label.set_text("updated-under-modal"))
        deadline = time.monotonic() + 5
        while label.text != "updated-under-modal" and time.monotonic() < deadline:
            time.sleep(0.01)
        assert label.text == "updated-under-modal"  # processed during modal
        dialog.close()
        assert done.wait(timeout=5)

    def test_close_from_worker_thread(self, loop):
        rt = loop.runtime
        dialog = ModalDialog(loop)
        results = []
        done = threading.Event()

        def handler():
            results.append(dialog.show_modal(timeout=5))
            done.set()

        loop.invoke_later(handler)
        time.sleep(0.02)
        rt.invoke_target_block(
            "worker", lambda: (time.sleep(0.05), dialog.close(42)), "nowait"
        )
        assert done.wait(timeout=5)
        assert results == [42]

    def test_timeout(self, loop):
        dialog = ModalDialog(loop)
        errors = []
        done = threading.Event()

        def handler():
            try:
                dialog.show_modal(timeout=0.1)
            except TimeoutError:
                errors.append(True)
            done.set()

        loop.invoke_later(handler)
        assert done.wait(timeout=5)
        assert errors == [True]
        assert not dialog.is_open

    def test_timeout_is_the_barrier_error(self, loop):
        """The dialog pumps through the one logical barrier, so it expires
        like ``await`` does: ``AwaitTimeoutError`` with the EDT's state."""
        from repro.core import AwaitTimeoutError

        dialog = ModalDialog(loop, "confirm")

        def handler():
            with pytest.raises(AwaitTimeoutError) as ei:
                dialog.show_modal(timeout=0.05)
            return ei.value

        exc = loop.runtime.invoke_target_block("edt", handler).result()
        assert "'confirm'" in str(exc) and "queued=" in exc.diagnostics
        assert not dialog.is_open

    def test_show_modal_off_edt_rejected(self, loop):
        from repro.eventloop import EDTViolationError

        dialog = ModalDialog(loop)
        with pytest.raises(EDTViolationError):
            dialog.show_modal(timeout=0.1)

    def test_nested_modals_close_lifo(self, loop):
        outer, inner = ModalDialog(loop, "outer"), ModalDialog(loop, "inner")
        order = []
        done = threading.Event()

        def open_inner():
            order.append(("inner", inner.show_modal(timeout=5)))

        def handler():
            loop.invoke_later(open_inner)  # dispatched while outer is modal
            order.append(("outer", outer.show_modal(timeout=5)))
            done.set()

        loop.invoke_later(handler)
        time.sleep(0.1)
        assert outer.is_open and inner.is_open
        # Outer can only return after the nested pump (inner) unwinds.
        inner.close("i")
        time.sleep(0.05)
        outer.close("o")
        assert done.wait(timeout=5)
        assert order == [("inner", "i"), ("outer", "o")]
