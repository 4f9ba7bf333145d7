"""In-situ policy-driven dynamic reconfiguration.

The paper's stated future work: "the creation of policy-driven
mechanisms whereby rules governing response to poor performance behavior
can be formulated and applied based on performance monitoring."  This
module implements that loop on top of the SYMBIOSYS data sources:

* a :class:`PolicyEngine` runs as a monitoring ULT on its own execution
  stream (so it observes rather than perturbs), samples live metrics --
  Mercury PVARs through a tool session, OFI queue depths and Argobots
  blocked/ready counts -- at a fixed period, and
* evaluates :class:`Policy` rules over the recent metric history; a rule
  whose condition holds (and whose cooldown has elapsed) applies its
  reconfiguration action to the live Margo instance.

Built-in policies target two of the paper's §V-C root causes:

* :class:`RaiseOfiMaxEvents`   -- Figure 12's backed-up OFI event queue,
* :class:`DedicateProgressES`  -- Figure 11's starved progress ULT.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..margo import MargoInstance

__all__ = [
    "MetricSample",
    "Policy",
    "PolicyAction",
    "PolicyEngine",
    "RaiseOfiMaxEvents",
    "DedicateProgressES",
]


@dataclass(frozen=True)
class MetricSample:
    """One periodic observation of a process's live state."""

    time: float
    ofi_events_read: int  # num_ofi_events_read PVAR (last read batch)
    ofi_max_events: int  # current cap
    cq_depth: int  # instantaneous OFI completion-queue depth
    completion_queue_size: int  # Mercury completion queue
    num_blocked: int
    num_ready: int


@dataclass
class PolicyAction:
    """Record of one applied reconfiguration (the engine's audit log)."""

    time: float
    policy: str
    description: str


class Policy:
    """Base rule: override :meth:`condition` and :meth:`apply`."""

    #: Minimum simulated seconds between two firings of this rule.
    cooldown: float = 1e-3
    #: Samples of history the condition needs before it can fire.
    min_history: int = 3

    def __init__(self) -> None:
        self.last_fired: Optional[float] = None
        self.times_fired = 0

    @property
    def name(self) -> str:
        return type(self).__name__

    def condition(self, history: list[MetricSample]) -> bool:
        raise NotImplementedError

    def apply(self, mi: "MargoInstance") -> str:
        """Perform the reconfiguration; returns a description."""
        raise NotImplementedError

    def ready(self, now: float, history: list[MetricSample]) -> bool:
        if len(history) < self.min_history:
            return False
        if self.last_fired is not None and now - self.last_fired < self.cooldown:
            return False
        return self.condition(history)


class RaiseOfiMaxEvents(Policy):
    """If the OFI read batch keeps hitting the cap, the event queue is
    backed up (Figure 12's C5 signature): double the cap."""

    def __init__(
        self,
        *,
        window: int = 4,
        pegged_fraction: float = 0.75,
        factor: int = 2,
        max_cap: int = 256,
        cooldown: float = 1e-3,
    ):
        super().__init__()
        if not 0 < pegged_fraction <= 1:
            raise ValueError("pegged_fraction must be in (0, 1]")
        if factor < 2 or max_cap < 2:
            raise ValueError("factor and max_cap must be at least 2")
        self.window = window
        self.pegged_fraction = pegged_fraction
        self.factor = factor
        self.max_cap = max_cap
        self.cooldown = cooldown
        self.min_history = window

    def condition(self, history: list[MetricSample]) -> bool:
        recent = history[-self.window:]
        cap = recent[-1].ofi_max_events
        if cap >= self.max_cap:
            return False
        pegged = sum(1 for s in recent if s.ofi_events_read >= cap)
        return pegged / len(recent) >= self.pegged_fraction

    def apply(self, mi: "MargoInstance") -> str:
        old = mi.hg.ofi_max_events
        new = min(self.max_cap, old * self.factor)
        mi.set_ofi_max_events(new)
        return f"OFI_max_events {old} -> {new}"


class DedicateProgressES(Policy):
    """If the OFI queue stays deep even with a generous read cap, the
    progress ULT is starved for CPU (Figure 11's C5/C6 signature): give
    it a dedicated execution stream."""

    def __init__(self, *, window: int = 4, depth_threshold: int = 8,
                 cooldown: float = 1e-3):
        super().__init__()
        if depth_threshold < 1:
            raise ValueError("depth_threshold must be positive")
        self.window = window
        self.depth_threshold = depth_threshold
        self.cooldown = cooldown
        self.min_history = window

    def condition(self, history: list[MetricSample]) -> bool:
        recent = history[-self.window:]
        deep = sum(
            1
            for s in recent
            if s.cq_depth + s.completion_queue_size >= self.depth_threshold
        )
        return deep >= max(1, len(recent) // 2)

    def apply(self, mi: "MargoInstance") -> str:
        migrated = mi.enable_progress_thread()
        return (
            "progress loop moved to dedicated ES"
            if migrated
            else "progress ES already dedicated"
        )


class PolicyEngine:
    """The in-situ monitoring + reconfiguration loop for one process."""

    def __init__(
        self,
        mi: "MargoInstance",
        policies: list[Policy],
        *,
        period: float = 100e-6,
        history_limit: int = 256,
        dedicated_es: bool = True,
    ):
        if period <= 0:
            raise ValueError("period must be positive")
        self.mi = mi
        self.policies = policies
        self.period = period
        self.history: list[MetricSample] = []
        self._history_limit = history_limit
        self.actions: list[PolicyAction] = []
        self._stopped = False
        # The engine is a PVAR-interface client, like any external tool.
        mi.hg.pvars_enabled = True
        self._session = mi.hg.pvar_session_init()
        # Bind the sampled PVARs to slot readers once; the periodic
        # sampling loop then reads without per-tick name resolution.
        self._read_ofi_events = self._session.reader("num_ofi_events_read")
        self._read_cq_size = self._session.reader("completion_queue_size")
        if dedicated_es:
            pool = mi.rt.create_pool(f"{mi.addr}.monitor")
            mi.rt.create_xstream(pool, f"{mi.addr}.es-monitor")
        else:
            pool = mi.primary_pool
        self._ult = mi.rt.spawn(self._loop(), pool, name=f"{mi.addr}.policy")

    def stop(self) -> None:
        self._stopped = True

    # -- sampling -------------------------------------------------------------

    def sample(self) -> MetricSample:
        mi = self.mi
        return MetricSample(
            time=mi.sim.now,
            ofi_events_read=self._read_ofi_events(),
            ofi_max_events=mi.hg.ofi_max_events,
            cq_depth=mi.endpoint.cq_depth,
            completion_queue_size=self._read_cq_size(),
            num_blocked=mi.rt.num_blocked,
            num_ready=mi.rt.num_ready,
        )

    # -- the monitoring ULT ------------------------------------------------------

    def _loop(self) -> Generator:
        rt = self.mi.rt
        while not self._stopped:
            sample = self.sample()
            self.history.append(sample)
            if len(self.history) > self._history_limit:
                del self.history[: -self._history_limit]
            for policy in self.policies:
                if policy.ready(sample.time, self.history):
                    description = policy.apply(self.mi)
                    policy.last_fired = sample.time
                    policy.times_fired += 1
                    self.actions.append(
                        PolicyAction(
                            time=sample.time,
                            policy=policy.name,
                            description=description,
                        )
                    )
            yield from rt.sleep(self.period)
