"""Kernel-level synchronization and queueing primitives.

These primitives are for *simulator tasks* (e.g. network agents and
execution streams).  User-level threads running inside the simulated
Argobots runtime must use the ABT primitives in :mod:`repro.argobots`
instead, because blocking a ULT must free its execution stream rather than
suspend the kernel task interpreting it.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generator, Optional

from .engine import SimEvent, SimulationError, Simulator, Timeout

__all__ = ["Mutex", "Semaphore", "Store"]


class Mutex:
    """FIFO mutual-exclusion lock for kernel tasks.

    Usage from a task::

        yield from mutex.acquire()
        try:
            ...
        finally:
            mutex.release()
    """

    def __init__(self, sim: Simulator, name: str = "mutex"):
        self.sim = sim
        self.name = name
        self._locked = False
        self._waiters: deque[SimEvent] = deque()

    @property
    def locked(self) -> bool:
        return self._locked

    @property
    def waiting(self) -> int:
        return len(self._waiters)

    def acquire(self) -> Generator:
        if not self._locked:
            self._locked = True
            return
            yield  # pragma: no cover - makes this function a generator
        ev = self.sim.event(f"{self.name}.acquire")
        self._waiters.append(ev)
        yield ev

    def try_acquire(self) -> bool:
        """Non-blocking acquire; returns True on success."""
        if self._locked:
            return False
        self._locked = True
        return True

    def release(self) -> None:
        if not self._locked:
            raise SimulationError(f"{self.name}: release of unlocked mutex")
        if self._waiters:
            # Hand the lock directly to the next waiter: it resumes already
            # holding the mutex, so _locked stays True.
            self._waiters.popleft().succeed()
        else:
            self._locked = False


class Semaphore:
    """Counting semaphore with FIFO wakeup for kernel tasks."""

    def __init__(self, sim: Simulator, value: int, name: str = "sem"):
        if value < 0:
            raise ValueError("semaphore value must be non-negative")
        self.sim = sim
        self.name = name
        self._value = value
        self._waiters: deque[SimEvent] = deque()

    @property
    def value(self) -> int:
        return self._value

    @property
    def waiting(self) -> int:
        return len(self._waiters)

    def acquire(self) -> Generator:
        if self._value > 0:
            self._value -= 1
            return
            yield  # pragma: no cover - makes this function a generator
        ev = self.sim.event(f"{self.name}.acquire")
        self._waiters.append(ev)
        yield ev

    def release(self) -> None:
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self._value += 1


class Store:
    """Unbounded FIFO item store for kernel tasks.

    ``put`` is synchronous; ``get`` blocks the calling task until an item
    is available.  ``get_nowait`` and ``get_batch_nowait`` support polling
    consumers such as the OFI completion-queue reader.
    """

    def __init__(self, sim: Simulator, name: str = "store"):
        self.sim = sim
        self.name = name
        self._items: deque[Any] = deque()
        self._getters: deque[SimEvent] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def waiting_getters(self) -> int:
        return len(self._getters)

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Generator:
        if self._items:
            item = self._items.popleft()
            return item
            yield  # pragma: no cover - makes this function a generator
        ev = self.sim.event(f"{self.name}.get")
        self._getters.append(ev)
        item = yield ev
        return item

    def get_nowait(self) -> Optional[Any]:
        if self._items:
            return self._items.popleft()
        return None

    def get_batch_nowait(self, max_items: int) -> list[Any]:
        """Pop up to ``max_items`` items without blocking."""
        if max_items <= 0:
            return []
        n = min(max_items, len(self._items))
        return [self._items.popleft() for _ in range(n)]

    def wait_nonempty(self, timeout: Optional[float] = None) -> Generator:
        """Block until the store holds at least one item (or the timeout
        elapses).  Returns True if items are available.

        Unlike :meth:`get`, this does not consume an item; it is the
        building block for poll-style consumers.
        """
        if self._items:
            return True
            yield  # pragma: no cover - makes this function a generator
        ev = self.sim.event(f"{self.name}.nonempty")
        # Piggyback on the getter queue: a put() fires the event with the
        # item, which we immediately push back to preserve FIFO contents.
        self._getters.append(ev)
        if timeout is None:
            item = yield ev
            self._items.appendleft(item)
            return True
        from .engine import AnyOf

        idx, value = yield AnyOf([ev, Timeout(timeout)])
        if idx == 0:
            self._items.appendleft(value)
            return True
        # Timed out: withdraw our getter registration if still pending.
        try:
            self._getters.remove(ev)
        except ValueError:
            # A put() raced the timeout at the same instant and fired the
            # event; recover the item.
            if ev.fired:
                self._items.appendleft(ev.value)
                return True
        return False
