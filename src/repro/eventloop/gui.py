"""Mock GUI widgets with EDT confinement.

"GUI components are not thread-safe and access is strictly confined to the
EDT … Disrespecting this rule could result in the user interface exhibiting
inconsistency or even errors" (paper §II-A).  These headless widgets *enforce*
that rule: every mutating call asserts it runs on the loop's EDT, so tests
and examples catch threading bugs the way a real GUI framework would corrupt
state.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from .edt import EventLoop
from .events import Event

__all__ = [
    "EDTViolationError",
    "Widget",
    "Label",
    "ProgressBar",
    "Button",
    "Panel",
    "ModalDialog",
]


class EDTViolationError(RuntimeError):
    """A widget was touched from a thread other than the EDT."""

    def __init__(self, widget: "Widget", operation: str):
        super().__init__(
            f"{operation} on {type(widget).__name__}({widget.name!r}) called from "
            f"{threading.current_thread().name!r}, not the EDT — wrap it in "
            "`#omp target virtual(edt)` or invoke_later()"
        )


class Widget:
    """Base widget: EDT-confined state plus a change journal for assertions."""

    def __init__(self, loop: EventLoop, name: str) -> None:
        self.loop = loop
        self.name = name
        self._journal: list[tuple[str, Any]] = []

    def _check_edt(self, operation: str) -> None:
        if not self.loop.is_edt():
            raise EDTViolationError(self, operation)

    def _record(self, operation: str, value: Any) -> None:
        self._check_edt(operation)
        self._journal.append((operation, value))

    @property
    def journal(self) -> list[tuple[str, Any]]:
        """All mutations applied, in EDT order (thread-safe to read after
        quiescence; tests read it once the loop has drained)."""
        return list(self._journal)


class Label(Widget):
    """A text label (``Label.setText`` in the paper's running example)."""

    def __init__(self, loop: EventLoop, name: str = "label", text: str = "") -> None:
        super().__init__(loop, name)
        self._text = text

    def set_text(self, text: str) -> None:
        self._record("set_text", text)
        self._text = text

    @property
    def text(self) -> str:
        return self._text


class ProgressBar(Widget):
    """Progress display for intermediate updates (S2 in paper Figure 2)."""

    def __init__(self, loop: EventLoop, name: str = "progress") -> None:
        super().__init__(loop, name)
        self._value = 0

    def set_value(self, value: int) -> None:
        if not 0 <= value <= 100:
            raise ValueError("progress must be within [0, 100]")
        self._record("set_value", value)
        self._value = value

    @property
    def value(self) -> int:
        return self._value


class Button(Widget):
    """A clickable button; ``click()`` fires its event through the loop
    (callable from any thread, like a real input source)."""

    def __init__(self, loop: EventLoop, name: str = "button") -> None:
        super().__init__(loop, name)
        self.event_name = f"{name}.click"

    def on_click(self, handler: Callable[[Event], Any]) -> None:
        self.loop.on(self.event_name, handler)

    def click(self, payload: Any = None):
        return self.loop.fire(self.event_name, payload)


class Panel(Widget):
    """The paper's Figure 6 surface: messages, input collection, images."""

    def __init__(self, loop: EventLoop, name: str = "panel") -> None:
        super().__init__(loop, name)
        self._messages: list[str] = []
        self._images: list[Any] = []
        self._input: Any = None

    def show_msg(self, msg: str) -> None:
        self._record("show_msg", msg)
        self._messages.append(msg)

    def display_img(self, img: Any) -> None:
        self._record("display_img", img)
        self._images.append(img)

    def set_input(self, value: Any) -> None:
        self._record("set_input", value)
        self._input = value

    def collect_input(self) -> Any:
        self._check_edt("collect_input")
        return self._input

    @property
    def messages(self) -> list[str]:
        return list(self._messages)

    @property
    def images(self) -> list[Any]:
        return list(self._images)


class ModalDialog(Widget):
    """A modal dialog: ``show_modal()`` blocks the calling handler while the
    EDT keeps dispatching events — by pumping its own queue, exactly the
    mechanism Algorithm 1's ``await`` uses (desktop toolkits run modal
    dialogs this way, with the same nested-loop semantics).

    ``close(result)`` may be called from any thread; ``show_modal`` returns
    that result on the EDT.
    """

    def __init__(self, loop: "EventLoop", name: str = "dialog") -> None:  # noqa: F821
        super().__init__(loop, name)
        self._open = False
        self._result: Any = None
        self._closed = threading.Event()

    def show_modal(self, timeout: float | None = None) -> Any:
        """Open the dialog and pump the EDT's queue until :meth:`close`.

        Must be called on the EDT (it is a GUI operation *and* needs the
        EDT's queue to pump).  Re-entrant: a handler dispatched while one
        dialog is open may itself open another — LIFO close order applies,
        as in real toolkits.  Still open after *timeout*: ``AwaitTimeoutError``.
        """
        self._record("show_modal", None)
        self._open = True
        self._closed.clear()
        try:
            # The same logical barrier as ``await``; close() wakes it.
            self.loop.target.pump_until(self._closed.is_set, timeout=timeout, name=self.name)
        finally:
            self._open = False
        self._journal.append(("closed", self._result))
        return self._result

    def close(self, result: Any = None) -> None:
        """Close the dialog (any thread), delivering *result*."""
        self._result = result
        self._closed.set()
        self.loop.target.wakeup()

    @property
    def is_open(self) -> bool:
        return self._open
