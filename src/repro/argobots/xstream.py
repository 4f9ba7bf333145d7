"""Execution streams: the schedulers that run ULTs.

An execution stream (ES) is a kernel task bound to one pool.  It pops
READY ULTs and interprets their effects; while a ULT computes the ES is
busy, and when a ULT blocks the ES immediately picks up the next one.
ESs with an empty pool park until the next push.

This is the lower level of the two-level scheduling hierarchy; all the
queueing behaviour the paper measures (target handler time, progress-ULT
starvation) comes out of this loop.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from ..sim import SimulationError, Timeout
from .pool import Pool
from .ult import ULT, Compute, UltState, WaitEventual, YieldNow

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
        #: Cumulative simulated seconds spent computing (incl. switch cost).
        self.busy_time = 0.0
        self._task = runtime.sim.spawn(self._main(), name=f"{name}.main")

    # -- main loop ---------------------------------------------------------

    def _main(self):
        rt = self.runtime
        pool = self.pool
        while not rt.shutting_down:
            ult = pool.pop()
            if ult is None:
                # Woken by the next push, or by AbtRuntime.shutdown().
                yield pool.work_event()
                continue
            yield from self._run_ult(ult)

    def _run_ult(self, ult: ULT):
        rt = self.runtime
        sim = rt.sim
        slice_start = sim.now
        if rt.ctx_switch_cost > 0:
            yield Timeout(rt.ctx_switch_cost)
            self.busy_time += rt.ctx_switch_cost
        if ult.started_at is None:
            ult.started_at = sim.now
        ult.state = UltState.RUNNING
        self.current = ult
        try:
            while True:
                rt._current_ult = ult
                try:
                    if ult._throw_exc is not None:
                        exc, ult._throw_exc = ult._throw_exc, None
                        effect = ult.gen.throw(exc)
                    else:
                        effect = ult.gen.send(ult._send_value)
                except StopIteration as stop:
                    rt._finish_ult(ult, stop.value, None)
                    return
                except BaseException as exc:
                    rt._finish_ult(ult, None, exc)
                    if not rt.swallow_ult_errors:
                        raise
                    return
                finally:
                    rt._current_ult = None
                ult._send_value = None

                if isinstance(effect, Compute):
                    if effect.duration > 0:
                        yield Timeout(effect.duration)
                        self.busy_time += effect.duration
                elif isinstance(effect, WaitEventual):
                    ev = effect.eventual
                    if ev.is_set:
                        ult._send_value = (
                            (True, ev.value) if effect.timeout is not None else ev.value
                        )
                        continue
                    ult.state = UltState.BLOCKED
                    ult._wait_wrap = effect.timeout is not None
                    rt.num_blocked += 1
                    ev._add_waiter(ult)
                    if effect.timeout is not None:
                        sim.call_after(effect.timeout, rt._wait_timeout, ult, ev)
                    return
                elif isinstance(effect, YieldNow):
                    ult.state = UltState.READY
                    ult.pool.push(ult)
                    return
                else:
                    raise SimulationError(
                        f"ULT {ult.name!r} yielded non-ABT effect {effect!r}"
                    )
        finally:
            self.current = None
            for obs in rt._sched_observers:
                obs.on_slice(self, ult, slice_start, sim.now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        running = self.current.name if self.current else None
        return f"ExecutionStream({self.name!r}, running={running!r})"
