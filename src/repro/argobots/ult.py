"""User-level threads (ULTs) and the effects they yield.

A ULT body is a Python generator.  It communicates with the execution
stream interpreting it by yielding *ABT effects*:

* :class:`Compute` -- occupy the execution stream's CPU for a duration of
  simulated time.
* :class:`WaitEventual` -- block until an :class:`~repro.argobots.sync.Eventual`
  is signaled; the signal value becomes the result of the ``yield``.
  An optional timeout turns the result into ``(ok, value)``.
* :class:`YieldNow` -- cooperative yield: requeue at the tail of the home
  pool so other ready ULTs can run.

Blocking a ULT frees its execution stream; that distinction (versus
blocking the whole kernel task) is what makes handler-pool queueing and
progress-loop starvation emerge naturally in the simulation.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Generator, Optional

__all__ = ["ULT", "UltState", "Compute", "WaitEventual", "YieldNow", "AbtEffect"]

_ult_ids = itertools.count(1)


class UltState(enum.Enum):
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    TERMINATED = "terminated"


# The members as module-level names, for the per-slice scheduler path:
# a global load is an order of magnitude cheaper than an attribute
# lookup on the Enum class.
READY = UltState.READY
RUNNING = UltState.RUNNING
BLOCKED = UltState.BLOCKED
TERMINATED = UltState.TERMINATED


class AbtEffect:
    """Marker base class for effects a ULT may yield."""

    __slots__ = ()


class Compute(AbtEffect):
    """Consume ``duration`` seconds of CPU on the current execution stream."""

    __slots__ = ("duration",)

    def __init__(self, duration: float):
        if duration < 0:
            raise ValueError(f"negative compute duration: {duration!r}")
        self.duration = float(duration)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Compute({self.duration!r})"


class WaitEventual(AbtEffect):
    """Block the ULT until the eventual is signaled.

    Without a timeout, the ``yield`` evaluates to the signal value.  With a
    timeout, it evaluates to ``(ok, value)`` where ``ok`` is False if the
    timeout elapsed first.
    """

    __slots__ = ("eventual", "timeout")

    def __init__(self, eventual: Any, timeout: Optional[float] = None):
        if timeout is not None and timeout < 0:
            raise ValueError(f"negative timeout: {timeout!r}")
        self.eventual = eventual
        self.timeout = timeout

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WaitEventual({self.eventual!r}, timeout={self.timeout!r})"


class YieldNow(AbtEffect):
    """Cooperatively yield the execution stream."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "YieldNow()"


class ULT:
    """A user-level thread: a generator plus scheduling state.

    ``local`` is the ULT-local key/value storage the paper's "ULT-local
    key" instrumentation strategy (Table III) writes through.
    ``blocked_at``, kept by the execution stream for the scheduler
    observers, is the end of the ULT's previous slice when that slice
    ended in a block, else None.  ``waiting_on`` is the eventual of the
    timed wait the ULT is blocked in (None otherwise) and
    ``wait_number`` counts its timed waits: a timeout names the wait it
    belongs to, so the queue entry that fires it holds no eventual.
    """

    __slots__ = (
        "id",
        "gen",
        "name",
        "pool",
        "state",
        "blocked_at",
        "waiting_on",
        "wait_number",
        "local",
        "created_at",
        "started_at",
        "finished_at",
        "result",
        "error",
        "_send_value",
        "_wait_wrap",
        "join_waiters",
    )

    def __init__(self, gen: Generator, pool: Any, name: str = "", created_at: float = 0.0):
        self.id = next(_ult_ids)
        self.gen = gen
        self.name = name or f"ult{self.id}"
        self.pool = pool
        self.state = READY
        self.blocked_at: Optional[float] = None
        self.waiting_on: Any = None
        self.wait_number = 0
        self.local: dict[Any, Any] = {}
        self.created_at = created_at
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self._send_value: Any = None
        self._wait_wrap = False
        #: Eventuals signaled with the ULT's result when it terminates.
        self.join_waiters: list[Any] = []

    @property
    def terminated(self) -> bool:
        return self.state is TERMINATED

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ULT({self.name!r}, {self.state.value})"
