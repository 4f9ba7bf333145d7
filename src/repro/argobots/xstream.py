"""Execution streams: the schedulers that run ULTs.

An execution stream (ES) is a simulated OS thread bound to one pool.  It
pops READY ULTs and interprets their effects; while a ULT computes the
ES is busy, and when a ULT blocks the ES immediately picks up the next
one.  An ES with an empty pool parks on it until the next push.

The ES is not a coroutine: it is a small state machine driven by kernel
callbacks, so ULTs are the simulator's only coroutines.  Each step that
waits is one kernel event, and schedules at most one callback:

* starting the ES, and waking it from a park, run :meth:`_next` at the
  current instant;
* a context switch (``ctx_switch_cost > 0``) runs :meth:`_switched` one
  switch cost later -- in that window the popped ULT is still READY and
  ``current`` is None;
* a ``Compute(d)`` with ``d > 0`` runs :meth:`_computed` ``d`` later --
  unless no queued event could run before it ends
  (:meth:`~repro.sim.Simulator.try_advance`).  Then the clock moves to
  the end, the ES credits its busy time and keeps stepping the ULT in
  place: the same order and instants as the callback, without the heap
  round trip.

A ULT's *slice* runs from its pop until it blocks, yields or terminates;
each scheduler observer sees every slice once, also when a ULT error
ends it.  Observers keep no per-ULT state: they read what the slice
started from off the ES (``dispatched_from``) and when the ULT last
blocked off the ULT (``blocked_at``, updated after the observers ran,
so they see the value for the slice being reported).

This is the lower level of the two-level scheduling hierarchy; all the
queueing behaviour the paper measures (target handler time, progress-ULT
starvation) comes out of this loop.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from ..sim import SimulationError
from .pool import Pool
from .ult import BLOCKED, READY, RUNNING, ULT, Compute, WaitEventual, YieldNow

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import AbtRuntime

__all__ = ["ExecutionStream"]


class ExecutionStream:
    """A simulated OS thread executing ULTs from one pool."""

    def __init__(self, runtime: "AbtRuntime", pool: Pool, name: str = "es"):
        self.runtime = runtime
        self.pool = pool
        self.name = name
        self.current: Optional[ULT] = None
        #: This stream's slot in ``runtime.es_busy``.
        self._busy_slot = len(runtime.es_busy)
        runtime.es_busy.append(0.0)
        #: When the slice in progress began (the pop of its ULT).
        self._slice_start = 0.0
        #: The state the slice in progress found its ULT in: READY
        #: unless the scheduler state machine broke.
        self.dispatched_from = READY
        sim = runtime.sim
        sim.call_at(sim.now, self._next)

    # -- scheduling callbacks ------------------------------------------------

    def _next(self) -> None:
        """Run READY ULTs until one holds the ES across simulated time
        or the pool runs dry."""
        rt = self.runtime
        sim = rt.sim
        pool = self.pool
        while True:
            ult = pool.pop()
            if ult is None:
                # Woken by the next push.
                pool.park(self._next)
                return
            self._slice_start = sim.now
            if rt.ctx_switch_cost > 0:
                sim.call_at(sim.now + rt.ctx_switch_cost, self._switched, ult)
                return
            if not self._start(ult):
                return

    def _switched(self, ult: ULT) -> None:
        rt = self.runtime
        rt.es_busy[self._busy_slot] += rt.ctx_switch_cost
        if self._start(ult):
            self._next()

    def _computed(self, ult: ULT, duration: float) -> None:
        self.runtime.es_busy[self._busy_slot] += duration
        if self._run(ult):
            self._next()

    def _start(self, ult: ULT) -> bool:
        if ult.started_at is None:
            ult.started_at = self.runtime.sim.now
        # The only READY -> RUNNING transition: keep what it left.
        self.dispatched_from = ult.state
        ult.state = RUNNING
        self.current = ult
        self.runtime.num_running += 1
        return self._run(ult)

    def _run(self, ult: ULT) -> bool:
        """Step ``ult`` until its slice ends (True: it blocked, yielded or
        terminated) or a ``Compute`` holds the ES (False)."""
        rt = self.runtime
        sim = rt.sim
        held = False
        blocked_at = None
        try:
            while True:
                rt._current_ult = ult
                try:
                    effect = ult.gen.send(ult._send_value)
                except StopIteration as stop:
                    rt._finish_ult(ult, stop.value, None)
                    return True
                except BaseException as exc:
                    rt._finish_ult(ult, None, exc)
                    raise
                finally:
                    rt._current_ult = None
                ult._send_value = None

                if isinstance(effect, Compute):
                    duration = effect.duration
                    if duration > 0:
                        end = sim.now + duration
                        if sim.try_advance(end):
                            # No event can run before the compute ends.
                            rt.es_busy[self._busy_slot] += duration
                            continue
                        sim.call_at(end, self._computed, ult, duration)
                        held = True
                        return False
                elif isinstance(effect, WaitEventual):
                    ev = effect.eventual
                    if ev.is_set:
                        ult._send_value = (
                            (True, ev.value) if effect.timeout is not None else ev.value
                        )
                        continue
                    ult.state = BLOCKED
                    blocked_at = sim.now
                    ult._wait_wrap = effect.timeout is not None
                    rt.num_blocked += 1
                    ev._add_waiter(ult)
                    if effect.timeout is not None:
                        ult.waiting_on = ev
                        ult.wait_number += 1
                        sim.call_after(
                            effect.timeout, rt._on_wait_timeout,
                            ult, ult.wait_number,
                        )
                    return True
                elif isinstance(effect, YieldNow):
                    ult.state = READY
                    ult.pool.push(ult)
                    return True
                else:
                    raise SimulationError(
                        f"ULT {ult.name!r} yielded non-ABT effect {effect!r}"
                    )
        finally:
            if not held:
                self.current = None
                rt.num_running -= 1
                for obs in rt._sched_observers:
                    obs.on_slice(self, ult, self._slice_start, sim.now)
                ult.blocked_at = blocked_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        running = self.current.name if self.current else None
        return f"ExecutionStream({self.name!r}, running={running!r})"
