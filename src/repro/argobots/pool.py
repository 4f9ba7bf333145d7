"""FIFO work pools.

A pool holds READY ULTs.  One or more execution streams dequeue from a
pool; when a pool is empty an ES parks on it and is woken by the next
push.  The pool also keeps the high-watermark and cumulative statistics
the SYMBIOSYS system monitor samples.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, TYPE_CHECKING

from ..sim import SimEvent, Simulator

if TYPE_CHECKING:  # pragma: no cover
    from .ult import ULT

__all__ = ["Pool"]


class Pool:
    """An Argobots-style FIFO pool of ready ULTs."""

    def __init__(self, sim: Simulator, name: str = "pool"):
        self.sim = sim
        self.name = name
        self._queue: deque["ULT"] = deque()
        self._waiters: deque[SimEvent] = deque()
        #: Highest number of ULTs ever queued simultaneously.
        self.high_watermark = 0
        #: Total ULTs ever pushed (for throughput accounting).
        self.total_pushed = 0
        #: Total ULTs ever dequeued.  ``total_pushed - total_popped ==
        #: len(pool)`` is the conservation invariant the validation layer
        #: checks.
        self.total_popped = 0

    def __len__(self) -> int:
        return len(self._queue)

    def push(self, ult: "ULT") -> None:
        """Append a READY ULT and wake one parked execution stream."""
        self._queue.append(ult)
        self.total_pushed += 1
        if len(self._queue) > self.high_watermark:
            self.high_watermark = len(self._queue)
        if self._waiters:
            self._waiters.popleft().succeed()

    def pop(self) -> Optional["ULT"]:
        """Dequeue the next ready ULT, or None if the pool is empty."""
        if self._queue:
            self.total_popped += 1
            return self._queue.popleft()
        return None

    def work_event(self) -> SimEvent:
        """An event fired at the next :meth:`push` (one-shot, one waiter)."""
        ev = self.sim.event(f"{self.name}.work")
        self._waiters.append(ev)
        return ev

    def wake_waiters(self) -> None:
        """Fire every pending work event (runtime shutdown)."""
        waiters = self._waiters
        while waiters:
            waiters.popleft().succeed()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Pool({self.name!r}, len={len(self._queue)})"
