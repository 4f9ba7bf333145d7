"""One-stop construction of a simulated Mochi deployment.

A deployment is a :class:`~repro.sim.Simulator`, a
:class:`~repro.net.Fabric`, an optional
:class:`~repro.symbiosys.SymbiosysCollector`, and one
:class:`~repro.margo.MargoInstance` per process, each wired to its own
instrumentation object.  :class:`Cluster` is the one place that builds
them, with a context-manager lifecycle::

    with Cluster(seed=42, stage=Stage.FULL) as cluster:
        server = cluster.process("server", "node1", n_handler_es=2)
        client = cluster.process("cli", "node0")
        ...
        cluster.run_until(lambda: done, limit=1.0)
        print(profile_summary(cluster.collector).render())

On exit every process is finalized and the event queue drained, so a
cluster tears down without leaking pending simulator events
(:attr:`leaked_events` reports any that survived the drain).

Services deploy onto a cluster or a process rather than building their
own: ``HEPnOSService.deploy(cluster, ...)``,
``ShardedKVService.deploy(cluster, n)``, ``MobjectProviderNode(mi)``,
``SonataProvider(mi, pid)``.
Every experiment harness, example and benchmark that runs Margo
processes builds them here, so a preset's cost model reaches every
process of the run.

Faults: pass a :class:`~repro.faults.FaultPlan` and the cluster creates a
:class:`~repro.faults.FaultInjector` seeded from the cluster's
:class:`~repro.sim.RngRegistry`, installs it on the fabric, and attaches
it to every process -- the whole campaign replays identically from
``seed``.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Union

from .faults import FaultInjector, FaultPlan
from .margo import Instrumentation, MargoConfig, MargoInstance, RetryPolicy
from .mercury import HGConfig, SerializationModel
from .net import Fabric, FabricConfig
from .sim import LocalClock, RngRegistry, Simulator
from .symbiosys import Stage, SymbiosysCollector
from .symbiosys.monitor import Monitor, MonitorConfig
from .validate import InvariantMonitor, ValidationConfig

__all__ = ["Cluster"]


class Cluster:
    """A simulated Mochi deployment: simulator + fabric + processes +
    instrumentation, built through one object.

    ``preset`` is duck-typed: anything with ``serialization``, ``fabric``,
    ``ctx_switch_cost`` attributes and an ``hg_config()`` method works
    (see :class:`repro.experiments.presets.Preset`).  Explicit keyword
    arguments override the preset's values.

    ``stage`` selects the SYMBIOSYS support level for the bundled
    collector; ``None`` disables instrumentation entirely (the Baseline).
    :meth:`process` takes an ``instrumentation`` object to override the
    collector's for one process.
    """

    def __init__(
        self,
        *,
        seed: int = 0,
        stage: Optional[Stage] = Stage.FULL,
        preset: Any = None,
        fabric_config: Optional[FabricConfig] = None,
        hg_config: Optional[HGConfig] = None,
        serialization: Optional[SerializationModel] = None,
        ctx_switch_cost: Optional[float] = None,
        fault_plan: Optional[FaultPlan] = None,
        retry: Optional[RetryPolicy] = None,
        monitoring: Union[None, bool, MonitorConfig] = None,
        validate: Union[None, bool, ValidationConfig] = None,
        store: Union[None, str, Any] = None,
        run_name: Optional[str] = None,
        run_tags: Optional[dict] = None,
    ):
        self.sim = Simulator()
        self.rng = RngRegistry(seed)
        #: Seed of the cluster's RNG registry (recorded by the store).
        self.seed = seed
        #: Persistent performance store sink: a path, a
        #: :class:`~repro.store.PerfStore`, or a ``StoreWriter``.  When
        #: set, :meth:`shutdown` archives the run (monitor telemetry,
        #: profiles, breakdowns) via :func:`repro.store.record_cluster_run`;
        #: :attr:`run_id` then holds the recorded run's id.
        self.store = store
        self.run_name = run_name
        self.run_tags = dict(run_tags) if run_tags else {}
        self.run_id: Optional[int] = None

        if fabric_config is None and preset is not None:
            fabric_config = preset.fabric
        if hg_config is None and preset is not None:
            hg_config = preset.hg_config()
        if serialization is None and preset is not None:
            serialization = preset.serialization
        if ctx_switch_cost is None:
            ctx_switch_cost = (
                preset.ctx_switch_cost if preset is not None else 50e-9
            )

        self.fabric = Fabric(self.sim, fabric_config)
        self._hg_config = hg_config
        self._serialization = serialization
        self._ctx_switch_cost = ctx_switch_cost
        #: Cluster-wide default retry policy for new processes.
        self.retry = retry

        self.collector: Optional[SymbiosysCollector] = (
            SymbiosysCollector(stage) if stage is not None else None
        )

        self.injector: Optional[FaultInjector] = None
        if fault_plan is not None:
            self.injector = FaultInjector(
                self.sim, fault_plan, rng=self.rng.fork("faults")
            ).install(self.fabric)

        #: Online telemetry (``monitoring=True`` for defaults, or pass a
        #: :class:`~repro.symbiosys.monitor.MonitorConfig`).  Started
        #: immediately; stopped by :meth:`shutdown` before the drain.
        self.monitor: Optional[Monitor] = None
        if monitoring:
            mon_config = (
                monitoring
                if isinstance(monitoring, MonitorConfig)
                else MonitorConfig()
            )
            self.monitor = Monitor(self.sim, mon_config, fabric=self.fabric)
            self.monitor.start()

        #: Runtime invariant checking (``validate=True`` for defaults, or
        #: pass a :class:`~repro.validate.ValidationConfig`).  Attached to
        #: every process; finalized by :meth:`shutdown` after the drain.
        self.validator: Optional[InvariantMonitor] = None
        if validate:
            vconfig = (
                validate
                if isinstance(validate, ValidationConfig)
                else ValidationConfig()
            )
            self.validator = InvariantMonitor(
                self.sim, fabric=self.fabric, config=vconfig
            )

        self.processes: dict[str, MargoInstance] = {}
        #: Pending simulator events that survived the shutdown drain
        #: (0 after a clean teardown).
        self.leaked_events = 0
        self._shutdown_done = False
        self._shutdown_hooks: list[Callable[[], None]] = []

    def add_shutdown_hook(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` at the start of :meth:`shutdown`, before the
        event-queue drain.  Services with self-rescheduling sim-clock
        loops (e.g. the sharded service's membership heartbeat) register
        their ``stop`` here so the drain can terminate."""
        self._shutdown_hooks.append(callback)

    # -- building -----------------------------------------------------------

    def process(
        self,
        addr: str,
        node: Optional[str] = None,
        *,
        config: Optional[MargoConfig] = None,
        retry: Optional[RetryPolicy] = None,
        clock: Optional[LocalClock] = None,
        instrumentation: Optional[Instrumentation] = None,
        **config_kw: Any,
    ) -> MargoInstance:
        """Create one Mochi process on ``node`` (default: its own node).

        ``config_kw`` are :class:`~repro.margo.MargoConfig` fields
        (``n_handler_es=2``, ``use_progress_thread=True``, ...) for the
        common case; pass ``config`` explicitly for full control.
        """
        if addr in self.processes:
            raise ValueError(f"duplicate process address {addr!r}")
        if config is not None and config_kw:
            raise ValueError("pass either config or config keywords, not both")
        if config is None and config_kw:
            config = MargoConfig(**config_kw)
        if instrumentation is None and self.collector is not None:
            instrumentation = self.collector.create_instrumentation()
        mi = MargoInstance(
            self.sim,
            self.fabric,
            addr,
            node if node is not None else f"node-{addr}",
            config=config,
            hg_config=self._hg_config,
            serialization=self._serialization,
            clock=clock,
            instrumentation=instrumentation,
            retry=retry if retry is not None else self.retry,
            rng=self.rng,
            ctx_switch_cost=self._ctx_switch_cost,
        )
        if self.injector is not None:
            self.injector.attach(mi)
            trace = getattr(mi.instr, "trace", None)
            if trace is not None:
                self.injector.bind_trace(addr, trace)
        if self.monitor is not None:
            try:
                self.monitor.attach(mi)
            except ValueError:
                mi.finalize()  # a refused process must not outlive the run
                raise
        if self.validator is not None:
            # Last, so its lifecycle checker wraps the instrumentation the
            # injector and collector already saw.
            self.validator.attach(mi)
        self.processes[addr] = mi
        return mi

    # -- running ------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        return self.sim.run(until=until)

    def run_until(self, predicate: Callable[[], bool], limit: float) -> bool:
        return self.sim.run_until(predicate, limit)

    def run_until_event(self, event, limit: Optional[float] = None) -> bool:
        """Event-driven wait: run until ``event`` fires (or ``limit``).

        Preferred over :meth:`run_until` on hot paths -- it stops exactly
        at the firing instant with no per-event predicate cost and no
        idle tail."""
        return self.sim.run_until_event(event, limit=limit)

    # -- reporting ----------------------------------------------------------

    def resilience_report(self) -> dict[str, dict[str, int]]:
        """Per-process degraded-mode gauges, keyed by address."""
        return {
            addr: mi.resilience_counters()
            for addr, mi in self.processes.items()
        }

    def fault_events(self) -> list[tuple]:
        """The injector's deterministic fault-event trace (empty without
        a fault plan)."""
        return self.injector.event_trace() if self.injector is not None else []

    # -- lifecycle ----------------------------------------------------------

    def shutdown(self) -> None:
        """Finalize every process and drain the event queue.

        Idempotent.  Afterwards :attr:`leaked_events` holds the number
        of events still pending (0 for a clean teardown).
        """
        if self._shutdown_done:
            return
        self._shutdown_done = True
        for hook in self._shutdown_hooks:
            hook()
        if self.monitor is not None:
            # The sampler must stop before the drain -- a self-
            # rescheduling tick would keep the event queue alive forever.
            self.monitor.stop()
        if self.injector is not None:
            # A scheduled restart must not revive a finalized process.
            self.injector.disarm()
        for mi in self.processes.values():
            mi.finalize()
        self.sim.run()
        self.leaked_events = self.sim.pending_events
        if self.validator is not None:
            # Fault campaigns legitimately strand late responses and
            # abandoned handles; relax the drain invariants for them.
            self.validator.finalize(
                allow_undrained=self.injector is not None
            )
        if self.store is not None:
            # Lazy import: repro.store pulls in the symbiosys export
            # surface, which this module must not import eagerly.
            from .store import record_cluster_run

            self.run_id = record_cluster_run(
                self.store,
                self,
                name=self.run_name or f"cluster-seed{self.seed}",
                tags=self.run_tags,
            )

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            self.shutdown()
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cluster(processes={len(self.processes)}, now={self.sim.now}, "
            f"faults={'on' if self.injector is not None else 'off'})"
        )
