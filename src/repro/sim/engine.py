"""Discrete-event simulation kernel.

The kernel is the foundation for every substrate in this repository: the
Argobots user-level threading runtime, the OFI-like network fabric, the
Mercury RPC library, and the Margo layer are all built as tasks scheduled
on a single :class:`Simulator`.

Tasks are plain Python generators.  A task communicates with the kernel by
yielding *waitables*:

* :class:`Timeout` -- resume the task after a fixed amount of simulated time.
* :class:`SimEvent` -- resume the task when the event is fired; the value
  passed to :meth:`SimEvent.succeed` becomes the result of the ``yield``.
* :class:`AnyOf` -- resume when the first of several waitables completes.

Subroutines compose with ``yield from``; the kernel never needs to know
about nesting.

Determinism law (load-bearing for the golden-trace corpus): events
scheduled for the same timestamp fire in the order they were scheduled.
One structure upholds it: a single ``heapq`` of ``(when, seq, fn, args)``
entries, popped in ``(when, seq)`` order, where ``seq`` is a
monotonically increasing counter that breaks timestamp ties.  Work
scheduled at the current instant -- an event fires, a task resumes, a
spawn takes its first step -- rides the same heap: its ``seq`` is
larger than that of every entry already queued for that instant, so it
runs after them.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Simulator",
    "SimEvent",
    "Timeout",
    "AnyOf",
    "Task",
    "SimulationError",
    "StopSimulation",
    "all_of",
]


class SimulationError(RuntimeError):
    """Raised for kernel-level protocol violations (e.g. yielding a
    non-waitable, or firing an event twice)."""


class StopSimulation(Exception):
    """Raised inside a callback to halt :meth:`Simulator.run` immediately."""


class _Waitable:
    """Base class for objects a task may ``yield`` to the kernel."""

    __slots__ = ()

    def _subscribe(self, sim: "Simulator", task: "Task") -> None:
        raise NotImplementedError


class Timeout(_Waitable):
    """Resume the yielding task after ``delay`` units of simulated time."""

    __slots__ = ("delay", "value")

    def __init__(self, delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout: {delay!r}")
        self.delay = float(delay)
        self.value = value

    def _subscribe(self, sim: "Simulator", task: "Task") -> None:
        sim.call_at(sim.now + self.delay, task._resume, self.value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Timeout({self.delay!r})"


class SimEvent(_Waitable):
    """A one-shot event that tasks can wait on.

    An event is fired at most once with :meth:`succeed` (or :meth:`fail`);
    every task waiting on it is resumed with the event's value, and tasks
    that wait on an already-fired event resume immediately.
    """

    __slots__ = ("sim", "_value", "_exc", "_fired", "_callbacks", "name")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._fired = False
        self._callbacks: list[Callable[["SimEvent"], None]] = []

    @property
    def fired(self) -> bool:
        return self._fired

    @property
    def value(self) -> Any:
        if not self._fired:
            raise SimulationError(f"event {self.name!r} has not fired yet")
        return self._value

    def succeed(self, value: Any = None) -> "SimEvent":
        if self._fired:
            raise SimulationError(f"event {self.name!r} fired twice")
        self._value = value
        self._fire()
        return self

    def fail(self, exc: BaseException) -> "SimEvent":
        if self._fired:
            raise SimulationError(f"event {self.name!r} fired twice")
        self._exc = exc
        self._fire()
        return self

    def _fire(self) -> None:
        self._fired = True
        callbacks, self._callbacks = self._callbacks, []
        sim = self.sim
        for cb in callbacks:
            # Callbacks run at the *current* simulated instant but through
            # the event queue, preserving deterministic FIFO ordering.
            sim.call_at(sim.now, cb, self)

    def add_callback(self, cb: Callable[["SimEvent"], None]) -> None:
        """Invoke ``cb(event)`` once the event fires (immediately if it
        already has)."""
        if self._fired:
            self.sim.call_at(self.sim.now, cb, self)
        else:
            self._callbacks.append(cb)

    def _subscribe(self, sim: "Simulator", task: "Task") -> None:
        self.add_callback(task._on_event)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "fired" if self._fired else "pending"
        return f"SimEvent({self.name!r}, {state})"


class _AnyOfWaiter:
    """Shared first-wins state of one :class:`AnyOf` subscription."""

    __slots__ = ("task", "fired")

    def __init__(self, task: "Task"):
        self.task = task
        self.fired = False

    def fire(self, index: int, value: Any = None) -> None:
        if self.fired:
            return
        self.fired = True
        self.task._resume((index, value))


class _AnyOfBranch:
    """Event-callback adapter binding one branch index to its waiter."""

    __slots__ = ("waiter", "index")

    def __init__(self, waiter: _AnyOfWaiter, index: int):
        self.waiter = waiter
        self.index = index

    def __call__(self, ev: "SimEvent") -> None:
        self.waiter.fire(self.index, ev._value)


class AnyOf(_Waitable):
    """Wait for the first of several waitables; yields ``(index, value)``.

    Losing :class:`Timeout` branches are discarded harmlessly (their kernel
    callback becomes a no-op); losing :class:`SimEvent` branches are *not*
    consumed -- the event stays available to other waiters.
    """

    __slots__ = ("branches",)

    def __init__(self, branches: Iterable[_Waitable]):
        self.branches = list(branches)
        if not self.branches:
            raise ValueError("AnyOf requires at least one branch")

    def _subscribe(self, sim: "Simulator", task: "Task") -> None:
        waiter = _AnyOfWaiter(task)
        for i, br in enumerate(self.branches):
            if isinstance(br, Timeout):
                sim.call_at(sim.now + br.delay, waiter.fire, i, br.value)
            elif isinstance(br, SimEvent):
                br.add_callback(_AnyOfBranch(waiter, i))
            else:
                raise SimulationError(
                    f"AnyOf supports Timeout and SimEvent branches, got {br!r}"
                )


class Task:
    """A running generator task.

    ``task.done`` is a :class:`SimEvent` fired with the generator's return
    value when it finishes (or failed with its exception).  The event is
    allocated lazily on first access -- most tasks (ULT bodies, progress
    loops) are never awaited through it, so the common case skips the
    event, its name string, and its callback list entirely.
    """

    __slots__ = (
        "sim", "gen", "name", "_done", "_finished", "_result", "_exc",
        "_gen_send", "_gen_throw",
    )

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        self.sim = sim
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "task")
        self._done: Optional[SimEvent] = None
        self._finished = False
        self._result: Any = None
        self._exc: Optional[BaseException] = None
        # Bound once: _step runs on every resume of every task.
        self._gen_send = gen.send
        self._gen_throw = gen.throw

    @property
    def finished(self) -> bool:
        return self._finished

    @property
    def done(self) -> SimEvent:
        ev = self._done
        if ev is None:
            ev = self._done = SimEvent(self.sim, name=f"{self.name}.done")
            if self._finished:
                # Finished before anyone looked: materialize as already
                # fired, so late waiters resume immediately (the same
                # behaviour an eagerly created, already-fired event had).
                ev._fired = True
                ev._value = self._result
                ev._exc = self._exc
        return ev

    def _step(self, value: Any, exc: Optional[BaseException]) -> None:
        try:
            if exc is None:
                yielded = self._gen_send(value)
            else:
                yielded = self._gen_throw(exc)
        except StopIteration as stop:
            self._finished = True
            self._result = stop.value
            if self._done is not None:
                self._done.succeed(stop.value)
            return
        except StopSimulation:
            raise
        except BaseException as caught:
            self._finished = True
            self._exc = caught
            observed = (
                self._done is not None and bool(self._done._callbacks)
            ) or self.sim.swallow_task_errors
            if self._done is not None:
                self._done.fail(caught)
            if not observed:
                raise
            return
        if not isinstance(yielded, _Waitable):
            raise SimulationError(
                f"task {self.name!r} yielded non-waitable {yielded!r}"
            )
        yielded._subscribe(self.sim, self)

    def _resume(self, value: Any = None) -> None:
        self._step(value, None)

    def _throw(self, exc: BaseException) -> None:
        self._step(None, exc)

    def _on_event(self, ev: SimEvent) -> None:
        if ev._exc is not None:
            self._step(None, ev._exc)
        else:
            self._step(ev._value, None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Task({self.name!r}, finished={self._finished})"


class _AllOfLatch:
    """Countdown callback shared by every branch of an :func:`all_of`."""

    __slots__ = ("done", "remaining")

    def __init__(self, done: SimEvent, remaining: int):
        self.done = done
        self.remaining = remaining

    def __call__(self, ev: SimEvent) -> None:
        self.remaining -= 1
        if self.remaining == 0:
            self.done.succeed(self.done.sim.now)


def all_of(
    sim: "Simulator", events: Iterable[SimEvent], name: str = "all-of"
) -> SimEvent:
    """A latch event that fires once every event in ``events`` has fired.

    The latch's value is the simulated time at which the last branch
    completed.  Already-fired branches count immediately (through the
    queue, like any fired-event callback); an empty collection fires the
    latch at the current instant.
    """
    branches = list(events)
    done = SimEvent(sim, name=name)
    if not branches:
        return done.succeed(sim.now)
    latch = _AllOfLatch(done, len(branches))
    for ev in branches:
        ev.add_callback(latch)
    return done


class _Waker:
    """Disarmable stop hook for :meth:`Simulator.run_until_event`.

    Registered as an event callback; while armed it halts the running
    simulation at the event's firing instant.  Disarmed once the wait
    returns, so a stale registration (the wait timed out, the event
    fired later during a drain) is a no-op instead of a stray stop.
    """

    __slots__ = ("armed",)

    def __init__(self) -> None:
        self.armed = True

    def __call__(self, ev: SimEvent) -> None:
        if self.armed:
            raise StopSimulation()


class Simulator:
    """Deterministic discrete-event simulator.

    Every scheduled callback lives in one priority queue of ``(when,
    seq, callback, args)`` entries (see the module docstring for the
    ordering law).  All substrate behaviour -- scheduling, networking,
    RPC progress -- reduces to callbacks on this queue.
    """

    def __init__(self, *, swallow_task_errors: bool = False):
        self._queue: list[tuple[float, int, Callable, tuple]] = []
        self._seq = itertools.count()
        self.now: float = 0.0
        self._running = False
        #: Cumulative callbacks processed (cheap; exposed for the
        #: benchmark suite's events/sec accounting).
        self.events_processed = 0
        #: If True, a task that dies with an unhandled exception records it
        #: on ``task.done`` instead of aborting the simulation.  Used by the
        #: failure-injection tests.
        self.swallow_task_errors = swallow_task_errors

    # -- scheduling -------------------------------------------------------

    def call_at(self, when: float, fn: Callable, *args: Any) -> None:
        """Schedule ``fn(*args)`` at simulated time ``when``."""
        if when < self.now:
            raise SimulationError(
                f"cannot schedule in the past: {when} < now {self.now}"
            )
        heapq.heappush(self._queue, (when, next(self._seq), fn, args))

    def call_after(self, delay: float, fn: Callable, *args: Any) -> None:
        """Schedule ``fn(*args)`` after ``delay`` units of simulated time."""
        self.call_at(self.now + delay, fn, *args)

    def event(self, name: str = "") -> SimEvent:
        """Create a fresh :class:`SimEvent` bound to this simulator."""
        return SimEvent(self, name=name)

    def spawn(self, gen: Generator, name: str = "") -> Task:
        """Start a generator as a task.  The first step runs at the current
        simulated instant (through the queue, preserving order)."""
        task = Task(self, gen, name=name)
        self.call_at(self.now, task._resume, None)
        return task

    # -- execution --------------------------------------------------------

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Process queued events.

        ``until`` bounds simulated time (inclusive); ``max_events`` bounds
        the number of processed callbacks (a runaway-loop backstop for
        tests).  Returns the final simulated time.
        """
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        self._running = True
        queue = self._queue
        heappop = heapq.heappop
        now = self.now
        processed = 0
        try:
            while queue:
                when = queue[0][0]
                if until is not None and when > until:
                    now = until
                    break
                _, _, fn, args = heappop(queue)
                now = self.now = when
                try:
                    fn(*args)
                except StopSimulation:
                    processed += 1
                    break
                processed += 1
                if max_events is not None and processed >= max_events:
                    break
            else:
                if until is not None and until > now:
                    now = until
        finally:
            self.now = now
            self._running = False
            self.events_processed += processed
        return now

    def run_until_event(
        self, event: SimEvent, limit: Optional[float] = None
    ) -> bool:
        """Process events until ``event`` fires; the event-driven wait.

        Stops *at the firing instant*: the waker rides the event's
        callback list through the queue, so callbacks registered
        before this wait still run at that instant, and nothing after it
        -- no fixed-step idle tail -- is simulated.  ``limit`` bounds
        simulated time.  Returns whether the event has fired.
        """
        if event._fired:
            return True
        if event.sim is not self:
            raise SimulationError("event belongs to a different simulator")
        waker = _Waker()
        event.add_callback(waker)
        try:
            self.run(until=limit)
        finally:
            waker.armed = False
        return event._fired

    def run_until(
        self,
        predicate: Callable[[], bool],
        limit: float,
    ) -> bool:
        """Advance until ``predicate()`` is true or ``limit`` is reached.

        The predicate is checked after every processed event, so the
        simulation stops exactly at the instant the predicate flips --
        no events past it are processed.  The per-event check makes this
        the *convenience* wait for tests and ad-hoc probes; hot paths
        should signal completion through a :class:`SimEvent` and use
        :meth:`run_until_event`, which costs nothing per event.
        """
        if predicate():
            return True
        queue = self._queue
        while self.now < limit and queue:
            if queue[0][0] > limit:
                self.now = limit
                break
            self.run(until=limit, max_events=1)
            if predicate():
                return True
        if self.now < limit and not queue:
            self.now = limit
        return predicate()

    def peek(self) -> Optional[float]:
        """Timestamp of the next queued event, or None if the queue is empty."""
        return self._queue[0][0] if self._queue else None

    @property
    def pending_events(self) -> int:
        return len(self._queue)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self.now}, pending={self.pending_events})"
