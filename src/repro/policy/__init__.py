"""repro.policy: the scheduling policies a worker pool can opt into.

Two policies, each off by default so the runtime reproduces its unpoliced
behaviour bit-for-bit unless asked:

* **work stealing** (:class:`StealRing`) — idle worker lanes take queued
  work from the most-backlogged sibling target that also opted in, emitting
  ``PUMP_STEAL`` events with victim/thief attribution;
* **dequeue batching** (the ``batch_max`` knob, enforced by
  ``repro.core.targets._TargetQueue.get_batch``) — a worker lane drains up
  to ``batch_max`` small regions per queue acquisition, amortising the
  ~8 µs dispatch fast-path.

Both are off unless a target asks for them at ``create_worker`` time
(``steal=``, ``batch_max=``).
docs/TUNING.md is the reference table and decision-rule documentation; it
also records why a pool's lane count is fixed at creation.
"""

from .steal import StealRing

__all__ = ["StealRing"]
