"""FIFO work pools.

A pool holds READY ULTs.  One or more execution streams dequeue from a
pool; when a pool is empty an ES parks on it by leaving a resume
callback, which the next push schedules at the current instant.  The
pool also keeps the high-watermark and cumulative statistics the
SYMBIOSYS system monitor samples, and counts its pushes and pops into
its runtime's ``num_ready``.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import AbtRuntime
    from .ult import ULT

__all__ = ["Pool"]


class Pool:
    """An Argobots-style FIFO pool of ready ULTs."""

    def __init__(self, runtime: "AbtRuntime", name: str = "pool"):
        self.runtime = runtime
        self.sim = runtime.sim
        self.name = name
        self._queue: deque["ULT"] = deque()
        #: Resume callbacks of parked execution streams, in park order.
        self._waiters: deque[Callable[[], None]] = deque()
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
        self.runtime.num_ready += 1
        if len(self._queue) > self.high_watermark:
            self.high_watermark = len(self._queue)
        if self._waiters:
            self.sim.call_at(self.sim.now, self._waiters.popleft())

    def pop(self) -> Optional["ULT"]:
        """Dequeue the next ready ULT, or None if the pool is empty."""
        if self._queue:
            self.total_popped += 1
            self.runtime.num_ready -= 1
            return self._queue.popleft()
        return None

    def park(self, resume: Callable[[], None]) -> None:
        """Schedule ``resume()`` at the next :meth:`push` (one-shot)."""
        self._waiters.append(resume)

    def wake_waiters(self) -> None:
        """Schedule every parked resume callback now (runtime shutdown)."""
        waiters = self._waiters
        sim = self.sim
        while waiters:
            sim.call_at(sim.now, waiters.popleft())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Pool({self.name!r}, len={len(self._queue)})"
