"""Synchronization primitives for ULTs (eventuals and mutexes).

These mirror the Argobots objects Mochi uses: ``ABT_eventual`` for
completion notification (Margo blocks RPC-issuing ULTs on one until the
response callback fires) and ``ABT_mutex`` for backend serialization
(the SDSKV ``map`` backend's insert lock -- the Figure 10 mechanism).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generator, Optional, TYPE_CHECKING

from .ult import ULT, WaitEventual

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import AbtRuntime

__all__ = ["Eventual", "AbtMutex"]


class Eventual:
    """One-shot signal ULTs can block on (``ABT_eventual``).

    Waiting is done by yielding ``WaitEventual(eventual)`` from a ULT body
    (use the :meth:`wait` helper).  Signaling moves every blocked waiter
    back to its home pool at the current simulated instant.
    """

    __slots__ = ("runtime", "name", "_set", "_value", "_waiters")

    def __init__(self, runtime: "AbtRuntime", name: str = "eventual"):
        self.runtime = runtime
        self.name = name
        self._set = False
        self._value: Any = None
        self._waiters: list[ULT] = []

    @property
    def is_set(self) -> bool:
        return self._set

    def signal(self, value: Any = None) -> None:
        """Signal the eventual, waking all blocked waiters."""
        if self._set:
            raise RuntimeError(f"eventual {self.name!r} signaled twice")
        self._set = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        for ult in waiters:
            self.runtime._unblock(ult, value)

    def wait(self, timeout: Optional[float] = None) -> Generator:
        """ULT-side wait helper: ``value = yield from ev.wait()``.

        With a timeout the result is ``(ok, value)``.
        """
        result = yield WaitEventual(self, timeout)
        return result

    # -- hooks used by the execution stream interpreter -------------------

    def _add_waiter(self, ult: ULT) -> None:
        self._waiters.append(ult)

    def _remove_waiter(self, ult: ULT) -> bool:
        try:
            self._waiters.remove(ult)
            return True
        except ValueError:
            return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Eventual({self.name!r}, set={self._set})"


class AbtMutex:
    """FIFO mutex for ULTs (``ABT_mutex``).

    Lock handoff is direct: ``unlock`` transfers ownership to the oldest
    waiter, which resumes already holding the mutex.
    """

    def __init__(self, runtime: "AbtRuntime", name: str = "abt_mutex"):
        self.runtime = runtime
        self.name = name
        self._locked = False
        self._owner: Optional[ULT] = None
        self._waiters: deque[tuple[ULT, Eventual]] = deque()
        #: Peak number of ULTs queued on this mutex (saturation metric).
        self.contention_high_watermark = 0

    def lock(self) -> Generator:
        """``yield from mutex.lock()`` from a ULT body."""
        me = self.runtime.self_ult()
        if not self._locked:
            self._locked = True
            self._owner = me
            return
        ev = Eventual(self.runtime, f"{self.name}.lock")
        self._waiters.append((me, ev))
        if len(self._waiters) > self.contention_high_watermark:
            self.contention_high_watermark = len(self._waiters)
        yield WaitEventual(ev, None)
        # Resumed by unlock(); ownership was transferred to us.

    def unlock(self) -> None:
        if not self._locked:
            raise RuntimeError(f"{self.name}: unlock of unlocked mutex")
        me = self.runtime.self_ult()
        if self._owner is not None and me is not None and self._owner is not me:
            raise RuntimeError(f"{self.name}: unlock by non-owner ULT")
        if self._waiters:
            ult, ev = self._waiters.popleft()
            self._owner = ult
            ev.signal()
        else:
            self._locked = False
            self._owner = None

