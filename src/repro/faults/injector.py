"""Execution engine for :class:`~repro.faults.plan.FaultPlan`.

The injector is the single authority on *when* faults fire.  It plugs
into the stack at three seams:

* ``injector.install(fabric)`` -- the fabric consults
  :meth:`FaultInjector.on_message` for every message (drop / duplicate /
  delay),
* ``injector.attach(mi)`` -- schedules the plan's crash/restart
  faults for that process on the simulator and registers the injector as
  the process's handler-fault hook,
* :meth:`FaultInjector.on_handler` -- called by Margo's handler wrapper
  at t5 to decide injected stalls/exceptions.

Every probabilistic decision draws from a named stream of a seeded
:class:`~repro.sim.rng.RngRegistry`, and every fired fault is appended
to :attr:`FaultInjector.events`; two injectors built from the same
``(plan, seed)`` over the same workload produce identical event traces
(:meth:`event_trace` compares equal), which the determinism tests and
the fault-campaign reports rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..net.fabric import WireFault
from ..sim import RngRegistry, Simulator
from .plan import (
    CrashFault,
    DelayRule,
    DropRule,
    DuplicateRule,
    FaultPlan,
    RestartFault,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..margo import MargoInstance
    from ..mercury import HGHandle
    from ..net import Endpoint, Message

__all__ = ["FaultEvent", "FaultInjector", "HandlerAction", "InjectedHandlerError"]


class InjectedHandlerError(RuntimeError):
    """The exception a :class:`~repro.faults.plan.HandlerFaultRule`
    raises inside a target handler; origins observe it as a
    ``RemoteRpcError``."""


@dataclass(frozen=True)
class FaultEvent:
    """One fired fault, recorded for reports and determinism checks."""

    time: float
    kind: str
    #: Deterministic identifying details (addresses, rpc names, nodes) --
    #: never per-run artifacts like handle cookies.
    detail: tuple


@dataclass
class HandlerAction:
    """What :meth:`FaultInjector.on_handler` asks the wrapper to do."""

    stall: float = 0.0
    error: Optional[BaseException] = None


class FaultInjector:
    """Executes one fault plan against a fabric and its processes."""

    def __init__(
        self,
        sim: Simulator,
        plan: FaultPlan,
        *,
        seed: int = 0,
        rng: Optional[RngRegistry] = None,
    ):
        self.sim = sim
        self.plan = plan
        self.rng = rng if rng is not None else RngRegistry(seed)
        self._wire_rng = self.rng.stream("faults.wire")
        self._handler_rng = self.rng.stream("faults.handler")
        self.events: list[FaultEvent] = []
        #: Fired-fault totals by kind (e.g. {"drop": 3, "crash": 1}).
        self.counters: dict[str, int] = {}
        self._processes: dict[str, "MargoInstance"] = {}
        #: addr -> trace sink (duck-typed: ``annotate(time, kind,
        #: detail)``; see :class:`repro.symbiosys.tracing.TraceBuffer`).
        self._trace_sinks: dict[str, object] = {}
        self._disarmed = False

    # -- wiring ---------------------------------------------------------------

    def install(self, fabric) -> "FaultInjector":
        """Register as the fabric's fault hook (chainable)."""
        fabric.fault_hook = self
        return self

    def attach(self, mi: "MargoInstance") -> None:
        """Adopt one Margo process: schedule its planned crash/restart
        faults and intercept its handlers."""
        if mi.addr in self._processes:
            raise ValueError(f"process {mi.addr!r} already attached")
        self._processes[mi.addr] = mi
        mi.fault_hook = self
        for fault in self.plan.faults_for(mi.addr):
            if isinstance(fault, CrashFault):
                self.sim.call_at(fault.at, self._do_crash, mi)
            elif isinstance(fault, RestartFault):
                self.sim.call_at(fault.at, self._do_crash, mi)
                self.sim.call_at(
                    fault.at + fault.downtime, self._do_restart, mi, fault.warmup
                )

    def bind_trace(self, addr: str, sink) -> None:
        """Mirror fired faults touching ``addr`` into ``sink`` (anything
        with ``annotate(time, kind, detail)``, typically that process's
        SYMBIOSYS trace buffer) so trace analysis can attribute latency
        spikes to injected faults."""
        self._trace_sinks[addr] = sink

    def disarm(self) -> None:
        """Suppress all not-yet-fired process faults.

        Called at teardown (``Cluster.shutdown``): scheduled crash/restart
        callbacks may still sit in the event queue, and letting a
        restart revive a finalized process would leak a progress loop
        that never exits.
        """
        self._disarmed = True

    # -- recording ------------------------------------------------------------

    def _record(self, kind: str, *detail, procs: tuple = ()) -> None:
        self.events.append(FaultEvent(self.sim.now, kind, tuple(detail)))
        self.counters[kind] = self.counters.get(kind, 0) + 1
        for addr in procs:
            sink = self._trace_sinks.get(addr)
            if sink is not None:
                sink.annotate(self.sim.now, kind, tuple(detail))

    def event_trace(self) -> list[tuple]:
        """The full fault timeline as comparable tuples -- identical for
        identical (plan, seed, workload)."""
        return [(e.time, e.kind) + e.detail for e in self.events]

    # -- process faults -------------------------------------------------------

    def _do_crash(self, mi: "MargoInstance") -> None:
        if self._disarmed or mi.crashed:
            return
        self._record("crash", mi.addr, procs=(mi.addr,))
        mi.crash()

    def _do_restart(self, mi: "MargoInstance", warmup: float) -> None:
        if self._disarmed or not mi.crashed:
            return
        self._record("restart", mi.addr, warmup, procs=(mi.addr,))
        mi.restart(warmup=warmup)

    # -- fabric hook ----------------------------------------------------------

    def on_message(
        self, msg: "Message", src_ep: "Endpoint", dst_ep: "Endpoint"
    ) -> Optional[WireFault]:
        """Per-message verdict; ``None`` means unaffected."""
        now = self.sim.now
        drop = False
        copies = 0
        extra_delay = 0.0
        for rule in self.plan.wire_rules:
            if not rule.matches(src=msg.src, dst=msg.dst, kind=msg.kind, now=now):
                continue
            if isinstance(rule, DropRule):
                if self._wire_rng.random() < rule.probability:
                    drop = True
            elif isinstance(rule, DuplicateRule):
                if self._wire_rng.random() < rule.probability:
                    copies += rule.copies
            elif isinstance(rule, DelayRule):
                if self._wire_rng.random() < rule.probability:
                    extra_delay += rule.extra + rule.spread * float(
                        self._wire_rng.random()
                    )
        if drop:
            self._record(
                "drop", msg.src, msg.dst, msg.kind, procs=(msg.src, msg.dst)
            )
            return WireFault(drop=True)
        if copies == 0 and extra_delay == 0.0:
            return None
        if copies:
            self._record(
                "duplicate", msg.src, msg.dst, msg.kind, copies,
                procs=(msg.src, msg.dst),
            )
        if extra_delay:
            self._record(
                "delay", msg.src, msg.dst, msg.kind, procs=(msg.src, msg.dst)
            )
        return WireFault(copies=copies, extra_delay=extra_delay)

    # -- handler hook ---------------------------------------------------------

    def on_handler(
        self, mi: "MargoInstance", handle: "HGHandle"
    ) -> Optional[HandlerAction]:
        """Called by the handler wrapper at t5; returns the injected
        stall/exception to apply, or ``None``."""
        now = self.sim.now
        action: Optional[HandlerAction] = None
        for rule in self.plan.handler_rules:
            if not rule.matches(rpc=handle.rpc_name, addr=mi.addr, now=now):
                continue
            if (
                rule.stall_probability > 0
                and self._handler_rng.random() < rule.stall_probability
            ):
                action = action or HandlerAction()
                action.stall += rule.stall
                self._record(
                    "handler_stall", mi.addr, handle.rpc_name, procs=(mi.addr,)
                )
            if (
                rule.error_probability > 0
                and self._handler_rng.random() < rule.error_probability
            ):
                action = action or HandlerAction()
                if action.error is None:
                    action.error = InjectedHandlerError(
                        f"injected fault in {handle.rpc_name!r} on {mi.addr!r}"
                    )
                self._record(
                    "handler_error", mi.addr, handle.rpc_name, procs=(mi.addr,)
                )
        return action

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultInjector(plan={self.plan.name!r}, "
            f"fired={sum(self.counters.values())})"
        )
