"""Discrete-event simulation kernel.

The kernel is the foundation for every substrate in this repository: the
Argobots user-level threading runtime, the OFI-like network fabric, the
Mercury RPC library, and the Margo layer are all built from callbacks
scheduled on a single :class:`Simulator`.

The kernel has two mechanisms and no coroutines of its own:

* :meth:`Simulator.call_at` / :meth:`Simulator.call_after` -- run a
  callback at a simulated instant.
* :class:`SimEvent` -- a one-shot event; :meth:`SimEvent.succeed` runs
  every callback registered with :meth:`SimEvent.add_callback`.

The simulator's only coroutines are Argobots ULTs, which their execution
streams (:mod:`repro.argobots.xstream`) drive from kernel callbacks.

Determinism law (load-bearing for the golden-trace corpus): events
scheduled for the same timestamp fire in the order they were scheduled.
One structure upholds it: a single ``heapq`` of ``(when, seq, fn, args)``
entries, popped in ``(when, seq)`` order, where ``seq`` is a
monotonically increasing counter that breaks timestamp ties.  Work
scheduled at the current instant -- an event fires, an execution stream
resumes -- rides the same heap: its ``seq`` is larger than that of
every entry already queued for that instant, so it runs after them.

One step skips the heap without bending that order.  Inside an
unbounded :meth:`Simulator.run` (no ``max_events``), a callback that
would schedule its own continuation at ``when`` may instead call
:meth:`Simulator.try_advance`.  It succeeds only if ``when`` is within
the run's ``until`` and the heap is empty or its head is strictly later
than ``when`` -- exactly the case where the pushed entry would be the
very next one popped.  The clock then moves to ``when`` and the caller
continues in place: every callback runs in the same order, at the same
instant, and ``events_processed`` counts the step as one event.
"""

from __future__ import annotations

import heapq
import itertools
from math import inf
from typing import Any, Callable, Iterable, Optional

__all__ = [
    "PeriodicSampler",
    "Simulator",
    "SimEvent",
    "SimulationError",
    "StopSimulation",
    "all_of",
]


class SimulationError(RuntimeError):
    """Raised for kernel-level protocol violations (e.g. scheduling in
    the past, or firing an event twice)."""


class StopSimulation(Exception):
    """Raised inside a callback to halt :meth:`Simulator.run` immediately."""


class SimEvent:
    """A one-shot event that callbacks can wait on.

    An event is fired at most once with :meth:`succeed`; every callback
    registered on it then runs with the event, and a callback added to
    an already-fired event runs at the current instant.
    """

    __slots__ = ("sim", "_value", "_fired", "_callbacks", "name")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self._value: Any = None
        self._fired = False
        self._callbacks: list[Callable[["SimEvent"], None]] = []

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "fired" if self._fired else "pending"
        return f"SimEvent({self.name!r}, {state})"


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

    def __init__(self) -> None:
        self._queue: list[tuple[float, int, Callable, tuple]] = []
        self._seq = itertools.count()
        self.now: float = 0.0
        self._running = False
        #: The latest instant :meth:`try_advance` may reach: the bound of
        #: the unbounded :meth:`run` in progress, ``-inf`` otherwise.
        self._advance_limit = -inf
        #: Cumulative callbacks processed (cheap; exposed for the
        #: benchmark suite's events/sec accounting).  Includes
        #: ``events_inline``.
        self.events_processed = 0
        #: Of ``events_processed``, the continuations that
        #: :meth:`try_advance` ran in place instead of through the heap.
        self.events_inline = 0

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

    # -- execution --------------------------------------------------------

    def try_advance(self, when: float) -> bool:
        """Move the clock to ``when`` if no queued event could run first.

        For a callback about to schedule its own continuation at
        ``when``: True means the clock is now at ``when``, the step is
        counted as one processed event, and the caller continues in
        place instead of scheduling.  That is allowed only inside an
        unbounded :meth:`run` (no ``max_events``), with ``when`` within
        its ``until``, and when the heap is empty or its head is strictly
        later than ``when`` (see the module docstring).  Otherwise it
        returns False and changes nothing.
        """
        queue = self._queue
        if queue and queue[0][0] <= when or when > self._advance_limit:
            return False
        if when < self.now:
            raise SimulationError(
                f"cannot advance into the past: {when} < now {self.now}"
            )
        self.now = when
        self.events_inline += 1
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Process queued events.

        ``until`` bounds simulated time (inclusive) and may not lie
        before ``now``; ``max_events`` bounds the number of processed
        callbacks (a runaway-loop backstop for tests, and
        :meth:`run_until`'s single step).  Returns the final simulated
        time.
        """
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        if until is not None and until < self.now:
            raise SimulationError(
                f"cannot run until the past: {until} < now {self.now}"
            )
        self._running = True
        queue = self._queue
        heappop = heapq.heappop
        horizon = inf if until is None else until
        if max_events is None:
            self._advance_limit = horizon
        inline_before = self.events_inline
        processed = 0
        try:
            while queue:
                when = queue[0][0]
                if when > horizon:
                    self.now = horizon
                    break
                _, _, fn, args = heappop(queue)
                self.now = when
                try:
                    fn(*args)
                except StopSimulation:
                    processed += 1
                    break
                processed += 1
                if max_events is not None and processed >= max_events:
                    break
            else:
                if until is not None and until > self.now:
                    self.now = until
        finally:
            self._advance_limit = -inf
            self._running = False
            self.events_processed += processed + self.events_inline - inline_before
        return self.now

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
        if event.sim is not self:
            raise SimulationError("event belongs to a different simulator")
        if event._fired:
            return True
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

    @property
    def pending_events(self) -> int:
        return len(self._queue)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self.now}, pending={self.pending_events})"


class PeriodicSampler:
    """Calls ``sample(now)`` every ``interval`` simulated seconds by
    self-rescheduling on the simulator's event queue: the monitor's
    sampler and the SSG heartbeat.

    The tick keeps the queue non-empty while it runs, so :meth:`stop`
    must come before a drain."""

    def __init__(
        self, sim: Simulator, interval: float, sample: Callable[[float], None]
    ):
        self.sim = sim
        self.interval = interval
        self._sample = sample
        self.ticks = 0
        self.running = False

    def start(self) -> None:
        if self.running:
            return
        self.running = True
        self.sim.call_at(self.sim.now + self.interval, self._tick)

    def stop(self) -> None:
        # A tick already in the queue fires once more as a no-op.
        self.running = False

    def _tick(self) -> None:
        if not self.running:
            return
        self.ticks += 1
        self._sample(self.sim.now)
        self.sim.call_at(self.sim.now + self.interval, self._tick)
