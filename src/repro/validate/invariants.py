"""Runtime invariant checkers.

An :class:`InvariantMonitor` attaches to a cluster through the same
observer seams the online telemetry uses -- the Argobots scheduler
observer, the Mercury progress observer, and the Margo instrumentation
hooks -- and asserts, *while the run unfolds*:

* **clock monotonicity** -- no observer callback ever sees simulated
  time move backwards,
* **ULT state machine** -- created -> ready -> running ->
  blocked/terminated; the execution stream dispatches only READY ULTs
  (a terminated ULT must never be scheduled again), and a ULT leaving
  its execution stream must not still be RUNNING.  The checker reads
  the state each dispatch found the ULT in off the execution stream
  (``ExecutionStream.dispatched_from``), so it holds no reference to
  any ULT,
* **pool conservation** -- for every Argobots pool,
  ``total_pushed - total_popped == len(pool)``,
* **RPC lifecycle ordering** -- the Figure 2 stage marks must be
  non-decreasing on each side of the wire (origin: t1 <= t14; target:
  t3 <= t4 <= t5 <= t8 <= t13),
* **byte conservation** -- every byte injected into the fabric is
  eventually delivered, dropped, or discarded: ``total + duplicated ==
  delivered + dropped + discarded + inflight``,
* **drain on exit** -- after the teardown drain no live process holds
  completion-queue backlog or posted-but-unanswered handles (relaxed
  under fault injection, where late responses are legitimate).

Every violation is recorded with simulated time, invariant name,
process address, and callpath (RPC or ULT name).  In ``strict`` mode
(the default) :meth:`InvariantMonitor.finalize` raises
:class:`InvariantViolationError`; with ``strict=False`` the fuzz runner
reads :attr:`InvariantMonitor.violations` instead.

Checkers are pure observers: they read state, never mutate the
workload, and add no simulated time -- a validated run has the same
makespan and the same export digests as an unvalidated one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..argobots.ult import READY, RUNNING, TERMINATED
from ..config import Replaceable
from ..margo.hooks import CompositeInstrumentation, Instrumentation

if TYPE_CHECKING:  # pragma: no cover
    from ..argobots.ult import ULT
    from ..argobots.xstream import ExecutionStream
    from ..margo import MargoInstance
    from ..mercury import HGHandle
    from ..net import Fabric
    from ..sim import Simulator

__all__ = [
    "InvariantMonitor",
    "InvariantViolation",
    "InvariantViolationError",
    "ValidationConfig",
]


#: Cap on recorded violations; further ones only increment
#: :attr:`InvariantMonitor.dropped` (a broken invariant usually fires on
#: every subsequent event).
MAX_VIOLATIONS = 100


@dataclass(frozen=True, kw_only=True)
class ValidationConfig(Replaceable):
    """Knobs of one :class:`InvariantMonitor`."""

    #: Raise :class:`InvariantViolationError` from ``finalize`` when any
    #: violation was recorded.  ``False`` collects silently (the fuzz
    #: runner's mode).
    strict: bool = True


@dataclass(frozen=True)
class InvariantViolation:
    """One broken invariant, with enough context to localize it."""

    time: float
    invariant: str
    process: str
    callpath: str
    message: str

    def render(self) -> str:
        where = self.process or "-"
        path = self.callpath or "-"
        return (
            f"{self.time * 1e3:12.6f} ms  {self.invariant:<20} "
            f"{where:<14} {path:<24} {self.message}"
        )


class InvariantViolationError(AssertionError):
    """Raised by ``finalize`` in strict mode; carries the violations."""

    def __init__(self, violations: list[InvariantViolation]):
        self.violations = violations
        lines = [f"{len(violations)} invariant violation(s):"]
        lines += [f"  {v.render()}" for v in violations[:10]]
        if len(violations) > 10:
            lines.append(f"  ... and {len(violations) - 10} more")
        super().__init__("\n".join(lines))


class _SchedChecker:
    """Per-process scheduler observer: clock + ULT state machine."""

    def __init__(self, monitor: "InvariantMonitor", mi: "MargoInstance"):
        self.monitor = monitor
        self.addr = mi.addr
        #: Per-ES end time of the last reported slice.
        self._es_last_end: dict[str, float] = {}

    def on_slice(
        self, es: "ExecutionStream", ult: "ULT", start: float, end: float
    ) -> None:
        mon = self.monitor
        mon.observe_time(end, self.addr, ult.name)
        if end < start:
            mon.record(
                "clock_monotonicity",
                f"run slice ends before it starts ({start} -> {end})",
                process=self.addr,
                callpath=ult.name,
            )
        last = self._es_last_end.get(es.name)
        if last is not None and start < last:
            mon.record(
                "clock_monotonicity",
                f"ES {es.name} slice starts at {start} before previous "
                f"slice ended at {last}",
                process=self.addr,
                callpath=ult.name,
            )
        self._es_last_end[es.name] = end

        was = es.dispatched_from
        if was is not READY:
            mon.record(
                "ult_state_machine",
                "terminated ULT scheduled again"
                if was is TERMINATED
                else f"ULT dispatched while {was.value}, expected ready",
                process=self.addr,
                callpath=ult.name,
            )
        if ult.state is RUNNING:
            mon.record(
                "ult_state_machine",
                "ULT still RUNNING after leaving its execution stream",
                process=self.addr,
                callpath=ult.name,
            )


#: Expected non-decreasing stage marks per handle side (Figure 2).
_ORIGIN_ORDER = ("t1", "t14")
_TARGET_ORDER = ("t3", "t4", "t5", "t8", "t13")


class _RpcLifecycleChecker(Instrumentation):
    """Instrumentation hooks asserting t1..t14 stage ordering."""

    def __init__(self, monitor: "InvariantMonitor", mi: "MargoInstance"):
        self.monitor = monitor
        self.addr = mi.addr

    def _check_order(self, handle: "HGHandle", order: tuple[str, ...]) -> None:
        present = [(m, handle.marks[m]) for m in order if m in handle.marks]
        for (m_a, t_a), (m_b, t_b) in zip(present, present[1:]):
            if t_b < t_a:
                self.monitor.record(
                    "rpc_lifecycle",
                    f"stage {m_b} at {t_b} precedes {m_a} at {t_a}",
                    process=self.addr,
                    callpath=handle.rpc_name,
                )

    def on_forward(self, mi, handle, ult) -> None:
        self.monitor.observe_time(
            handle.marks.get("t1", mi.sim.now), self.addr, handle.rpc_name
        )

    def on_forward_complete(self, mi, handle, ult, t1, t14) -> None:
        # t14 is the completion-callback mark; the origin ULT resumes a
        # scheduling quantum later, by which time concurrent clients may
        # already have advanced the global watermark.  Feed the resume
        # time; t14's ordering is covered by the t1/t14 check below.
        self.monitor.observe_time(mi.sim.now, self.addr, handle.rpc_name)
        if t14 < t1:
            self.monitor.record(
                "rpc_lifecycle",
                f"completion t14={t14} precedes issue t1={t1}",
                process=self.addr,
                callpath=handle.rpc_name,
            )
        self._check_order(handle, _ORIGIN_ORDER)

    def on_handler_start(self, mi, handle, ult) -> None:
        self.monitor.observe_time(
            handle.marks.get("t5", mi.sim.now), self.addr, handle.rpc_name
        )
        self._check_order(handle, _TARGET_ORDER)

    def on_respond(self, mi, handle, ult) -> None:
        self._check_order(handle, _TARGET_ORDER)

    def on_handler_end(self, mi, handle, ult) -> None:
        self._check_order(handle, _TARGET_ORDER)


class InvariantMonitor:
    """The validation hub for one simulated cluster.

    Wire it by hand (``attach`` each MargoInstance, ``finalize()`` after
    the teardown drain) or let :class:`~repro.cluster.Cluster` do both
    via ``Cluster(validate=True)`` /
    ``Cluster(validate=ValidationConfig(...))``.
    """

    def __init__(
        self,
        sim: "Simulator",
        *,
        fabric: Optional["Fabric"] = None,
        config: Optional[ValidationConfig] = None,
    ):
        self.sim = sim
        self.fabric = fabric
        self.config = config or ValidationConfig()
        self.violations: list[InvariantViolation] = []
        #: Violations beyond the :data:`MAX_VIOLATIONS` cap.
        self.dropped = 0
        self._processes: dict[str, "MargoInstance"] = {}
        self._last_time = sim.now
        self._finalized = False

    # -- wiring -------------------------------------------------------------

    def attach(self, mi: "MargoInstance") -> None:
        """Adopt one process: scheduler, progress, and RPC hooks."""
        if mi.addr in self._processes:
            raise ValueError(f"process {mi.addr!r} already validated")
        self._processes[mi.addr] = mi
        mi.rt.add_sched_observer(_SchedChecker(self, mi))
        mi.hg.add_progress_observer(
            lambda t, n, mi=mi: self._on_progress(mi, t, n)
        )
        # The instrumentation slot is single-occupancy; wrap whatever is
        # installed (possibly a NullInstrumentation) so SYMBIOSYS
        # measurement and lifecycle checking coexist.
        mi.instr = CompositeInstrumentation(
            [mi.instr, _RpcLifecycleChecker(self, mi)]
        )

    # -- recording ----------------------------------------------------------

    @property
    def ok(self) -> bool:
        return not self.violations and not self.dropped

    def record(
        self, invariant: str, message: str, *, process: str = "", callpath: str = ""
    ) -> None:
        if len(self.violations) >= MAX_VIOLATIONS:
            self.dropped += 1
            return
        self.violations.append(
            InvariantViolation(
                time=self.sim.now,
                invariant=invariant,
                process=process,
                callpath=callpath,
                message=message,
            )
        )

    def observe_time(self, t: float, process: str, callpath: str = "") -> None:
        """Feed one observed timestamp into the monotonicity check."""
        if t < self._last_time:
            self.record(
                "clock_monotonicity",
                f"observed time {t} after {self._last_time}",
                process=process,
                callpath=callpath,
            )
        else:
            self._last_time = t

    # -- periodic checks (ride the progress observer) -----------------------

    def _on_progress(self, mi: "MargoInstance", t: float, n: int) -> None:
        self.observe_time(t, mi.addr, "progress")
        self._check_pools(mi)
        self._check_fabric()

    def _check_pools(self, mi: "MargoInstance") -> None:
        for pool in mi.rt.pools:
            drift = pool.total_pushed - pool.total_popped - len(pool)
            if drift != 0:
                self.record(
                    "pool_conservation",
                    f"pool {pool.name}: pushed {pool.total_pushed} - popped "
                    f"{pool.total_popped} != depth {len(pool)} "
                    f"(drift {drift:+d})",
                    process=mi.addr,
                    callpath=pool.name,
                )

    def _check_fabric(self) -> None:
        f = self.fabric
        if f is None:
            return
        injected = f.total_bytes + f.duplicated_bytes
        accounted = (
            f.delivered_bytes
            + f.dropped_bytes
            + f.discarded_bytes
            + f.inflight_bytes
        )
        if injected != accounted:
            self.record(
                "byte_conservation",
                f"injected {injected} B != delivered {f.delivered_bytes} + "
                f"dropped {f.dropped_bytes} + discarded {f.discarded_bytes} "
                f"+ inflight {f.inflight_bytes}",
            )
        if f.inflight_bytes < 0:
            self.record(
                "byte_conservation",
                f"negative in-flight byte gauge: {f.inflight_bytes}",
            )

    # -- finalize -----------------------------------------------------------

    def finalize(self, *, allow_undrained: bool = False) -> None:
        """Run the end-of-run checks; in strict mode raise on violations.

        Call after the teardown drain.  ``allow_undrained`` relaxes the
        drain-on-exit invariants -- under fault injection late responses
        and abandoned handles are legitimate outcomes, not bugs.
        Idempotent; crashed processes are always exempt from drain
        checks (their queues died with them).
        """
        if self._finalized:
            return
        self._finalized = True
        for mi in self._processes.values():
            self._check_pools(mi)
            if allow_undrained or mi.crashed:
                continue
            backlog = mi.endpoint.cq_depth
            if backlog:
                self.record(
                    "drain_on_exit",
                    f"{backlog} OFI completion(s) never progressed",
                    process=mi.addr,
                )
            if mi.hg.has_pending_completions:
                self.record(
                    "drain_on_exit",
                    f"{len(mi.hg._completion_queue)} Mercury callback(s) "
                    "never triggered",
                    process=mi.addr,
                )
            if mi.hg._posted:
                names = sorted(
                    {h.rpc_name for h, _ in mi.hg._posted.values()}
                )
                self.record(
                    "drain_on_exit",
                    f"{len(mi.hg._posted)} posted handle(s) never completed",
                    process=mi.addr,
                    callpath=",".join(names),
                )
        self._check_fabric()
        if (
            self.fabric is not None
            and not allow_undrained
            and self.fabric.inflight_bytes != 0
        ):
            self.record(
                "drain_on_exit",
                f"{self.fabric.inflight_bytes} bytes still on the wire",
            )
        if self.config.strict and not self.ok:
            raise InvariantViolationError(list(self.violations))

    # -- reporting ----------------------------------------------------------

    def report(self) -> str:
        """Deterministic plain-text violation listing."""
        total = len(self.violations) + self.dropped
        lines = [f"invariant violations ({total}):"]
        lines += [f"  {v.render()}" for v in self.violations]
        if self.dropped:
            lines.append(f"  ... {self.dropped} further violation(s) dropped")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"InvariantMonitor(processes={len(self._processes)}, "
            f"violations={len(self.violations)})"
        )
