"""The per-process Argobots runtime.

One :class:`AbtRuntime` exists per simulated process.  It owns the pools
and execution streams, tracks the blocked/ready/running ULT counts that
SYMBIOSYS samples when generating trace events (the Figure 10 metric),
and provides the ULT lifecycle API (spawn/join/self).
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from ..sim import Simulator
from .pool import Pool
from .sync import AbtBarrier, AbtMutex, Eventual
from .ult import BLOCKED, READY, TERMINATED, ULT, WaitEventual
from .xstream import ExecutionStream

__all__ = ["AbtRuntime"]


class AbtRuntime:
    """Argobots-equivalent tasking runtime for one simulated process."""

    def __init__(
        self,
        sim: Simulator,
        name: str = "abt",
        *,
        ctx_switch_cost: float = 50e-9,
        swallow_ult_errors: bool = False,
    ):
        self.sim = sim
        self.name = name
        #: Simulated cost of dispatching a ULT onto an ES.  Non-zero by
        #: default so cooperative yield loops always advance time.
        self.ctx_switch_cost = float(ctx_switch_cost)
        self.swallow_ult_errors = swallow_ult_errors
        self.pools: list[Pool] = []
        self.xstreams: list[ExecutionStream] = []
        #: Number of ULTs currently blocked on an eventual/mutex -- the
        #: quantity sampled for Figure 10.
        self.num_blocked = 0
        #: ULTs queued in this runtime's pools, waiting for an execution
        #: stream (kept by the pools' push and pop).
        self.num_ready = 0
        #: ULTs currently executing on an execution stream (kept by the
        #: streams as a slice starts and ends).
        self.num_running = 0
        #: Cumulative simulated busy seconds of each execution stream, in
        #: ``xstreams`` order (``ExecutionStream.busy_time`` reads its
        #: slot), so utilisation is one ``sum()`` over a list.
        self.es_busy: list[float] = []
        self.total_spawned = 0
        self.total_finished = 0
        self._current_ult: Optional[ULT] = None
        #: Scheduler observers (duck-typed; see
        #: :class:`repro.symbiosys.monitor.SchedRecorder` and
        #: :class:`repro.validate.invariants.InvariantMonitor`).  Every ES
        #: reports each ULT run slice to each observer, in subscription
        #: order: ``on_slice(es, ult, start, end)``, the protocol's one
        #: method.  Per-ULT facts they need live on the ULT itself.
        self._sched_observers: list = []
        self.shutting_down = False
        #: Bound once: every timed wait's queue entry holds this method,
        #: the ULT and its wait number, and nothing the wait used.
        self._on_wait_timeout = self._wait_timeout

    # -- observers ---------------------------------------------------------

    def add_sched_observer(self, observer) -> None:
        """Subscribe an additional scheduler observer."""
        if observer in self._sched_observers:
            raise ValueError("scheduler observer already subscribed")
        self._sched_observers.append(observer)

    # -- construction ------------------------------------------------------

    def create_pool(self, name: str = "") -> Pool:
        pool = Pool(self, name or f"{self.name}.pool{len(self.pools)}")
        self.pools.append(pool)
        return pool

    def create_xstream(self, pool: Pool, name: str = "") -> ExecutionStream:
        es = ExecutionStream(
            self, pool, name or f"{self.name}.es{len(self.xstreams)}"
        )
        self.xstreams.append(es)
        return es

    # -- ULT lifecycle -----------------------------------------------------

    def spawn(self, gen: Generator, pool: Pool, name: str = "") -> ULT:
        """Create a ULT from a generator and make it READY in ``pool``."""
        ult = ULT(gen, pool, name=name, created_at=self.sim.now)
        self.total_spawned += 1
        pool.push(ult)
        return ult

    def self_ult(self) -> Optional[ULT]:
        """The ULT currently executing on this runtime, if any."""
        return self._current_ult

    def join(self, ult: ULT) -> Generator:
        """``result = yield from rt.join(ult)`` -- wait for termination."""
        if ult.terminated:
            if ult.error is not None:
                raise ult.error
            return ult.result
            yield  # pragma: no cover - makes this function a generator
        ev = Eventual(self, f"join:{ult.name}")
        ult.join_waiters.append(ev)
        result = yield WaitEventual(ev, None)
        if ult.error is not None:
            raise ult.error
        return result

    def join_all(self, ults: list[ULT]) -> Generator:
        """Join a list of ULTs; returns their results in order."""
        results = []
        for ult in ults:
            results.append((yield from self.join(ult)))
        return results

    def sleep(self, duration: float) -> Generator:
        """``yield from rt.sleep(dt)`` -- block the calling ULT for
        ``dt`` simulated seconds (the ES stays free)."""
        if duration < 0:
            raise ValueError("sleep duration must be non-negative")
        ev = Eventual(self, "sleep")
        yield WaitEventual(ev, duration)

    # -- synchronization factories ------------------------------------------

    def eventual(self, name: str = "eventual") -> Eventual:
        return Eventual(self, name)

    def mutex(self, name: str = "abt_mutex") -> AbtMutex:
        return AbtMutex(self, name)

    def barrier(self, parties: int, name: str = "abt_barrier") -> AbtBarrier:
        return AbtBarrier(self, parties, name)

    # -- introspection (sampled by SYMBIOSYS sysmon) -------------------------

    @property
    def num_active(self) -> int:
        """Spawned but not yet finished."""
        return self.total_spawned - self.total_finished

    def busy_fraction(self) -> float:
        """Mean cumulative busy time per ES divided by elapsed time --
        a coarse CPU-utilization proxy for the system monitor."""
        if not self.xstreams or self.sim.now <= 0:
            return 0.0
        return sum(self.es_busy) / (len(self.xstreams) * self.sim.now)

    # -- shutdown -----------------------------------------------------------

    def shutdown(self) -> None:
        """Stop all execution streams once they go idle: a parked ES
        wakes, sees ``shutting_down`` and exits."""
        if self.shutting_down:
            return
        self.shutting_down = True
        for es in self.xstreams:
            es.pool.wake_waiters()

    # -- internal hooks used by ES / sync ------------------------------------

    def _unblock(self, ult: ULT, value: Any) -> None:
        if ult.state is not BLOCKED:
            raise RuntimeError(f"unblocking non-blocked ULT {ult.name!r}")
        self.num_blocked -= 1
        ult._send_value = (True, value) if ult._wait_wrap else value
        ult._wait_wrap = False
        ult.waiting_on = None
        ult.state = READY
        ult.pool.push(ult)

    def _wait_timeout(self, ult: ULT, wait_number: int) -> None:
        """The timeout of the ULT's timed wait ``wait_number``; a no-op
        once that wait has ended (the ULT was signalled, or has moved on
        to a later wait)."""
        ev = ult.waiting_on
        if ev is None or ult.wait_number != wait_number:
            return
        ev._remove_waiter(ult)
        ult.waiting_on = None
        self.num_blocked -= 1
        ult._send_value = (False, None)
        ult._wait_wrap = False
        ult.state = READY
        ult.pool.push(ult)

    def _finish_ult(
        self, ult: ULT, result: Any, error: Optional[BaseException]
    ) -> None:
        ult.state = TERMINATED
        ult.finished_at = self.sim.now
        ult.result = result
        ult.error = error
        self.total_finished += 1
        waiters, ult.join_waiters = ult.join_waiters, []
        for ev in waiters:
            ev.signal(result)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AbtRuntime({self.name!r}, es={len(self.xstreams)}, "
            f"ready={self.num_ready}, blocked={self.num_blocked})"
        )
