"""Event-driven substrate: Swing-like event loop, baselines, and mock GUI.

Gives the reproduction the environment the paper evaluates in: an event
dispatch thread with a FIFO queue, the two manual offloading baselines
(SwingWorker, ExecutorService), and EDT-confined widgets.
"""

from .edt import EventLoop
from .events import Event, EventRecord
from .executor_service import ExecutorService, Future
from .gui import Button, EDTViolationError, Label, ModalDialog, Panel, ProgressBar, Widget
from .swing_worker import MAX_WORKER_THREADS, SwingWorker, swing_worker_pool, worker_from_callables
from .timer import Timer

__all__ = [
    "EventLoop",
    "Event",
    "EventRecord",
    "ExecutorService",
    "Future",
    "Button",
    "EDTViolationError",
    "Label",
    "ModalDialog",
    "Panel",
    "ProgressBar",
    "Widget",
    "SwingWorker",
    "MAX_WORKER_THREADS",
    "swing_worker_pool",
    "worker_from_callables",
    "Timer",
]
