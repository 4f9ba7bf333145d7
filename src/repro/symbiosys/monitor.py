"""Online monitoring: the always-on half of SYMBIOSYS.

The paper's workflow is post-mortem (profiles and traces consolidate
after the run); this module watches the run *while it unfolds*.  A
:class:`Monitor` attaches to the same seams the instrumentation layer
uses and drives a sim-clock-periodic :class:`PeriodicSampler` that
snapshots, per process:

* every NO_OBJECT Mercury PVAR (Table I classes, resilience gauges
  included),
* Argobots pool depths, blocked/ready/running ULT counts, and the
  execution-stream busy fraction,
* process memory and fabric-wide in-flight bytes,

into :class:`~repro.symbiosys.metrics.MetricsRegistry` metrics and
bounded ring-buffer time-series.  A :class:`SchedRecorder` hooks the
Argobots execution streams and records every ULT run slice (and the
block interval between slices) for the Perfetto timeline, and pluggable
:class:`AnomalyDetector` s evaluate each snapshot and emit timestamped
:class:`Finding` s during the run.

Everything here is deterministic: sampling ticks ride the simulator's
event queue (so they interleave identically for identical seeds), no
wall clock is ever read, and nothing exported contains process-global
counter artifacts (ULT ids, HG cookies).  Sampler callbacks are pure
observers -- they read simulator state but add no simulated cost, so the
simulated makespan of a monitored run equals the unmonitored one.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from ..config import Replaceable
from ..mercury.pvar import PvarBinding, PvarClass, PvarDef, PvarRegistry
from .metrics import MetricsRegistry, SeriesStore

if TYPE_CHECKING:  # pragma: no cover
    from ..argobots import ULT
    from ..argobots.xstream import ExecutionStream
    from ..margo import MargoInstance
    from ..net import Fabric
    from ..sim import Simulator

__all__ = [
    "AnomalyDetector",
    "Finding",
    "ForwardTimeoutBurstDetector",
    "Monitor",
    "MonitorConfig",
    "PeriodicSampler",
    "ProgressStarvationDetector",
    "QueueDepthWatermarkDetector",
    "SchedRecorder",
    "SchedSlice",
]


@dataclass(frozen=True, kw_only=True)
class MonitorConfig(Replaceable):
    """Configuration of one :class:`Monitor`.

    ``detectors`` selects the built-in anomaly detectors by name;
    ``detector_factories`` appends arbitrary extra detectors (each
    factory is called with this config and must return an
    :class:`AnomalyDetector`).
    """

    #: Sampling period on the *simulated* clock, seconds.
    interval: float = 100e-6
    #: Ring-buffer capacity of each metric time-series.
    ring_capacity: int = 4096
    #: Cap on recorded scheduler slices (run + block), monitor-wide.
    sched_slice_capacity: int = 65536
    #: Progress-ULT starvation: a process with completion-queue backlog
    #: but no progress-loop iteration for this long is starved.
    starvation_threshold: float = 0.5e-3
    #: Handler-pool queue depth that trips the watermark detector.
    queue_watermark: int = 8
    #: Forward-timeout burst: this many timeouts ...
    timeout_burst_count: int = 3
    #: ... within this window, seconds.
    timeout_burst_window: float = 1e-3
    #: Built-in detectors to arm.
    detectors: tuple[str, ...] = ("starvation", "queue_depth", "timeout_burst")
    #: Extra detector factories: ``factory(config) -> AnomalyDetector``.
    detector_factories: tuple[Callable, ...] = ()

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError("monitor interval must be positive")
        if self.ring_capacity < 1:
            raise ValueError("ring_capacity must be positive")
        if self.sched_slice_capacity < 1:
            raise ValueError("sched_slice_capacity must be positive")
        unknown = set(self.detectors) - set(_BUILTIN_DETECTORS)
        if unknown:
            raise ValueError(f"unknown detectors: {sorted(unknown)}")


@dataclass(frozen=True)
class Finding:
    """One anomaly observed during the run."""

    time: float
    detector: str
    process: str
    message: str
    value: float = 0.0
    #: Dominant wait-state category near the finding, filled in by
    #: :func:`repro.symbiosys.critical.annotate_findings` ("" until then).
    wait_state: str = ""

    def as_row(self) -> dict:
        row = {
            "time": f"{self.time * 1e3:.6f}ms",
            "detector": self.detector,
            "process": self.process,
            "finding": self.message,
        }
        if self.wait_state:
            row["wait_state"] = self.wait_state
        return row


class AnomalyDetector:
    """Base class: evaluate one telemetry snapshot, return findings.

    Detectors are *edge-triggered*: they report an anomaly when it
    begins (and may report recovery), not once per sample while it
    persists.  ``on_sample`` runs inside the sampler tick, so it must be
    a pure observer -- read state, never mutate the workload.
    """

    name = "anomaly"

    def on_sample(
        self, t: float, monitor: "Monitor"
    ) -> list[Finding]:  # pragma: no cover - interface
        raise NotImplementedError


class ProgressStarvationDetector(AnomalyDetector):
    """The Mercury progress ULT stopped turning the crank.

    Fires when a process has completion-queue backlog but its progress
    loop has not run for ``starvation_threshold`` seconds (an execution
    stream monopolized by compute, a hung process, a slow restart), or
    when the process is down entirely (crash -- the progress loop is
    gone and peers see only silence).  Clears when progress resumes.
    """

    name = "progress_starvation"

    def __init__(self, config: MonitorConfig):
        self.threshold = config.starvation_threshold
        self._starved: set[str] = set()

    def on_sample(self, t: float, monitor: "Monitor") -> list[Finding]:
        findings = []
        for addr, mi in monitor.iter_processes():
            last = monitor.last_progress.get(addr, 0.0)
            backlog = mi.endpoint.cq_depth
            down = mi.crashed
            starved = down or (backlog > 0 and t - last >= self.threshold)
            if starved and addr not in self._starved:
                self._starved.add(addr)
                if down:
                    msg = "progress loop halted (process down)"
                else:
                    msg = (
                        f"no progress for {(t - last) * 1e3:.3f} ms "
                        f"with {backlog} queued completions"
                    )
                findings.append(
                    Finding(t, self.name, addr, msg, value=t - last)
                )
            elif not starved and addr in self._starved:
                self._starved.discard(addr)
                findings.append(
                    Finding(t, self.name, addr, "progress resumed")
                )
        return findings


class QueueDepthWatermarkDetector(AnomalyDetector):
    """Handler-pool queue depth crossed the configured watermark.

    The Figure 9 pathology (too few execution streams) as a live alarm.
    Edge-triggered with hysteresis: re-arms once the depth falls to half
    the watermark.
    """

    name = "handler_queue_depth"

    def __init__(self, config: MonitorConfig):
        self.watermark = config.queue_watermark
        self._over: set[str] = set()

    def on_sample(self, t: float, monitor: "Monitor") -> list[Finding]:
        findings = []
        for addr, mi in monitor.iter_processes():
            depth = len(mi.handler_pool)
            if depth >= self.watermark and addr not in self._over:
                self._over.add(addr)
                findings.append(
                    Finding(
                        t,
                        self.name,
                        addr,
                        f"handler pool depth {depth} >= watermark "
                        f"{self.watermark}",
                        value=depth,
                    )
                )
            elif depth <= self.watermark // 2 and addr in self._over:
                self._over.discard(addr)
                findings.append(
                    Finding(
                        t,
                        self.name,
                        addr,
                        f"handler pool drained to {depth}",
                        value=depth,
                    )
                )
        return findings


class ForwardTimeoutBurstDetector(AnomalyDetector):
    """A burst of forward timeouts -- the client-side symptom of a dead
    or partitioned peer.  Watches the ``num_forward_timeouts`` resilience
    gauge and fires when it grows by ``timeout_burst_count`` within
    ``timeout_burst_window`` seconds; re-arms after a quiet window.
    """

    name = "forward_timeout_burst"

    def __init__(self, config: MonitorConfig):
        self.count = config.timeout_burst_count
        self.window = config.timeout_burst_window
        self._last_total: dict[str, int] = {}
        #: Per process: (time, delta) increments inside the window.
        self._recent: dict[str, list[tuple[float, int]]] = {}
        self._bursting: set[str] = set()

    def on_sample(self, t: float, monitor: "Monitor") -> list[Finding]:
        findings = []
        for addr, mi in monitor.iter_processes():
            total = mi.hg.pvars.raw_value("num_forward_timeouts")
            delta = total - self._last_total.get(addr, 0)
            self._last_total[addr] = total
            recent = self._recent.setdefault(addr, [])
            if delta > 0:
                recent.append((t, delta))
            while recent and recent[0][0] < t - self.window:
                recent.pop(0)
            in_window = sum(d for _, d in recent)
            if in_window >= self.count and addr not in self._bursting:
                self._bursting.add(addr)
                findings.append(
                    Finding(
                        t,
                        self.name,
                        addr,
                        f"{in_window} forward timeouts within "
                        f"{self.window * 1e3:.3f} ms",
                        value=in_window,
                    )
                )
            elif not recent and addr in self._bursting:
                self._bursting.discard(addr)
                findings.append(
                    Finding(t, self.name, addr, "timeout burst subsided")
                )
        return findings


_BUILTIN_DETECTORS: dict[str, Callable[[MonitorConfig], AnomalyDetector]] = {
    "starvation": ProgressStarvationDetector,
    "queue_depth": QueueDepthWatermarkDetector,
    "timeout_burst": ForwardTimeoutBurstDetector,
}


@dataclass(frozen=True)
class SchedSlice:
    """One scheduler interval of one ULT on one execution stream.

    ``kind`` is ``"run"`` (the ULT held the ES) or ``"block"`` (the ULT
    sat blocked on an eventual between two run slices).  ``reason`` says
    why a run slice ended: ``"end"`` (terminated), ``"block"``,
    ``"yield"``, or ``"preempt"`` (exception unwound through the ES).
    All fields are deterministic -- ULT *names* are stable across runs,
    ULT ids are not and are deliberately absent.
    """

    process: str
    es: str
    ult: str
    kind: str
    start: float
    end: float
    reason: str = ""


#: Slice-reason materialization table, indexed by the recorder's
#: internal reason code (0 is the empty reason of block slices).
_SLICE_REASONS = ("", "end", "block", "yield", "preempt")


class SchedRecorder:
    """The scheduler observer subscribed on each process's AbtRuntime
    (:meth:`~repro.argobots.runtime.AbtRuntime.add_sched_observer`).

    Records run slices as the execution streams report them and
    synthesizes the block slice between a ULT blocking and its next
    dispatch.  Bounded: past ``capacity`` slices it counts drops instead
    of growing.

    The hook fires on *every* ULT dispatch, so recording is columnar:
    one slice is four scalar appends into flat arrays with process/ES/
    ULT names interned to integer ids.  :attr:`slices` materializes
    (and caches) the :class:`SchedSlice` views for the exporters.
    """

    def __init__(self, capacity: int = 65536):
        self.capacity = capacity
        self.dropped = 0
        #: ULT object -> time its last run slice ended with a block.
        self._blocked_at: dict = {}
        self._n = 0
        self._ids = array("q")  # interleaved (process, es, ult) string ids
        self._kind = array("b")  # 0 = run, 1 = block
        self._reason = array("b")  # index into _SLICE_REASONS
        self._start = array("d")
        self._end = array("d")
        self._strings: list[str] = []
        self._str_ids: dict[str, int] = {}
        self._mat: list[SchedSlice] = []
        #: UltState -> reason code, resolved lazily (import cycle).
        self._reason_codes: Optional[dict] = None

    def _intern(self, s: str) -> int:
        i = self._str_ids.get(s)
        if i is None:
            i = self._str_ids[s] = len(self._strings)
            self._strings.append(s)
        return i

    def on_slice(
        self, es: "ExecutionStream", ult: "ULT", start: float, end: float
    ) -> None:
        """Called by the ES when a ULT leaves it (xstream hook)."""
        reason_codes = self._reason_codes
        if reason_codes is None:
            from ..argobots.ult import UltState

            reason_codes = self._reason_codes = {
                UltState.TERMINATED: 1,
                UltState.BLOCKED: 2,
                UltState.READY: 3,
            }
        n = self._n
        capacity = self.capacity
        blocked_since = self._blocked_at.pop(ult, None)
        proc = self._intern(es.runtime.name)
        es_id = self._intern(es.name)
        ult_id = self._intern(ult.name)
        if blocked_since is not None:
            if n < capacity:
                self._ids.extend((proc, es_id, ult_id))
                self._kind.append(1)
                self._reason.append(0)
                self._start.append(blocked_since)
                self._end.append(start)
                n += 1
            else:
                self.dropped += 1
        reason = reason_codes.get(ult.state, 4)
        if reason == 2:
            self._blocked_at[ult] = end
        if n < capacity:
            self._ids.extend((proc, es_id, ult_id))
            self._kind.append(0)
            self._reason.append(reason)
            self._start.append(start)
            self._end.append(end)
            n += 1
        else:
            self.dropped += 1
        self._n = n

    @property
    def slices(self) -> list[SchedSlice]:
        """Materialized slice views, in recording order (cached)."""
        mat = self._mat
        n = self._n
        if len(mat) != n:
            strings = self._strings
            ids = self._ids
            kind = self._kind
            reason = self._reason
            start = self._start
            end = self._end
            for i in range(len(mat), n):
                base = i * 3
                mat.append(
                    SchedSlice(
                        process=strings[ids[base]],
                        es=strings[ids[base + 1]],
                        ult=strings[ids[base + 2]],
                        kind="block" if kind[i] else "run",
                        start=start[i],
                        end=end[i],
                        reason=_SLICE_REASONS[reason[i]],
                    )
                )
        return mat

    def __len__(self) -> int:
        return self._n


class PeriodicSampler:
    """Drives :meth:`Monitor.sample` every ``interval`` simulated
    seconds by self-rescheduling on the simulator's event queue."""

    def __init__(self, sim: "Simulator", interval: float, sample: Callable[[float], None]):
        self.sim = sim
        self.interval = interval
        self._sample = sample
        self.ticks = 0
        self._running = False

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.sim.call_at(self.sim.now + self.interval, self._tick)

    def stop(self) -> None:
        # A tick already in the queue fires once more as a no-op.
        self._running = False

    def _tick(self) -> None:
        if not self._running:
            return
        self.ticks += 1
        self._sample(self.sim.now)
        self.sim.call_at(self.sim.now + self.interval, self._tick)


#: Per-process tasking gauges, in sampling order.  They follow the
#: PVAR rows in each plan's ``metrics``/``series`` lists.
_TASKING_GAUGES = (
    ("abt_handler_pool_depth", "ULTs queued in the handler pool"),
    ("abt_num_ready", "ULTs queued in pools, waiting for an ES"),
    ("abt_num_blocked", "ULTs blocked on an eventual or mutex"),
    ("abt_num_running", "ULTs currently executing on an ES"),
    ("abt_busy_fraction", "Mean cumulative ES busy time over elapsed time"),
    ("process_memory_bytes", "Simulated process memory gauge"),
)


class _ProcessPlan:
    """Per-process sampling plan: every name/label/PVAR-index resolution
    the sampler needs, done once at build time instead of every tick.

    ``rows`` is the schema's shared row template, one
    ``(slot, metric name, help, is_counter)`` tuple per NO_OBJECT PVAR.
    ``getters``, ``metrics`` and ``series`` are parallel to it:
    ``getters[i]`` is the PVAR's getter, or None to read
    ``values[slot]``; ``metrics[i]``/``series[i]`` stay None until the
    PVAR first reports a non-None value (LOWWATERMARKs start empty), the
    lazy creation that keeps exports byte-identical.  The tasking gauges
    follow the PVAR rows in ``metrics``/``series``.

    Invalidated (and rebuilt) when the process's PVAR registry grows --
    the staleness check in :meth:`Monitor.sample`.  The registry, the
    Argobots runtime and the handler pool are assigned once per
    :class:`~repro.margo.instance.MargoInstance`, so they need no check.
    """

    __slots__ = (
        "n_pvars", "pool", "labels", "rows", "values", "getters",
        "metrics", "series", "depth_hist",
    )


class Monitor:
    """The online telemetry hub for one simulated cluster.

    Wire it by hand (``attach`` each MargoInstance, then ``start()``)
    or let :class:`~repro.cluster.Cluster` do it via
    ``Cluster(monitoring=MonitorConfig(...))``.  ``stop()`` must run
    before the final event-queue drain, or the sampler keeps the
    simulation alive forever.
    """

    def __init__(
        self,
        sim: "Simulator",
        config: Optional[MonitorConfig] = None,
        *,
        fabric: Optional["Fabric"] = None,
    ):
        self.sim = sim
        self.config = config or MonitorConfig()
        self.fabric = fabric
        self.registry = MetricsRegistry()
        self.store = SeriesStore(self.config.ring_capacity)
        self.sched = SchedRecorder(self.config.sched_slice_capacity)
        #: Sampling-plan rebuilds (staleness-triggered) since start.
        self.plan_rebuilds = 0
        # Self-observability: the monitor's own overhead as PVARs, so
        # the ~1.1x claim is measurable from inside a run.  Exposed
        # through the normal PVAR session interface *and* sampled into
        # pvar_monitor_* series every tick.
        self.pvars = PvarRegistry()
        P, B = PvarClass, PvarBinding
        for d in (
            PvarDef(
                "monitor_samples_taken",
                P.COUNTER,
                B.NO_OBJECT,
                "Sampler ticks completed by the monitor",
                getter=lambda: self.sampler.ticks,
            ),
            PvarDef(
                "monitor_plan_rebuilds",
                P.COUNTER,
                B.NO_OBJECT,
                "Per-process sampling-plan rebuilds (staleness-triggered)",
                getter=lambda: self.plan_rebuilds,
            ),
            PvarDef(
                "monitor_sched_slices",
                P.LEVEL,
                B.NO_OBJECT,
                "Scheduler slices held in the columnar recorder",
                getter=lambda: len(self.sched),
            ),
            PvarDef(
                "monitor_sched_slice_highwater",
                P.HIGHWATERMARK,
                B.NO_OBJECT,
                "Deepest recorded fill of the scheduler-slice buffer",
                getter=lambda: len(self.sched),
            ),
            PvarDef(
                "monitor_sched_slices_dropped",
                P.COUNTER,
                B.NO_OBJECT,
                "Scheduler slices dropped past the capacity cap",
                getter=lambda: self.sched.dropped,
            ),
        ):
            self.pvars.define(d)
        self._self_plan: Optional[_ProcessPlan] = None
        self.findings: list[Finding] = []
        #: addr -> simulated time of the last progress-loop iteration.
        self.last_progress: dict[str, float] = {}
        self._processes: dict[str, "MargoInstance"] = {}
        #: addr -> the process's interned ``(("process", addr),)`` labels.
        self._labels: dict[str, tuple] = {}
        self._plans: dict[str, _ProcessPlan] = {}
        #: PVAR name sequence -> row template (see :class:`_ProcessPlan`).
        self._templates: dict[tuple[str, ...], tuple] = {}
        self._fabric_plan: Optional[tuple] = None
        self.detectors: list[AnomalyDetector] = [
            _BUILTIN_DETECTORS[name](self.config)
            for name in self.config.detectors
        ]
        self.detectors.extend(
            factory(self.config) for factory in self.config.detector_factories
        )
        self.sampler = PeriodicSampler(sim, self.config.interval, self.sample)

    # -- wiring -------------------------------------------------------------

    def attach(self, mi: "MargoInstance") -> None:
        """Adopt one process: hook its scheduler and progress loop."""
        if mi.addr in self._processes:
            raise ValueError(f"process {mi.addr!r} already monitored")
        self._processes[mi.addr] = mi
        labels = self._labels[mi.addr] = (("process", mi.addr),)
        mi.rt.add_sched_observer(self.sched)
        self.last_progress[mi.addr] = self.sim.now
        # The observer fires on every progress iteration, so it is a
        # closure over pre-resolved state: one dict store plus one
        # counter.inc per iteration.  The counter is still created on
        # the first iteration (not at attach), as before, so exports of
        # runs with idle processes are unchanged.
        addr = mi.addr
        last_progress = self.last_progress
        registry = self.registry
        counter = None

        def _observer(t: float, n: int) -> None:
            nonlocal counter
            last_progress[addr] = t
            if counter is None:
                counter = registry._counter_at(
                    ("hg_progress_iterations", labels),
                    "Progress-loop iterations completed",
                )
            counter.inc()

        mi.hg.add_progress_observer(_observer)

    def iter_processes(self):
        """Attached processes in attach order (deterministic)."""
        return self._processes.items()

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        self.sampler.start()

    def stop(self) -> None:
        """Stop sampling and take one final snapshot.

        Must happen before the teardown drain -- a self-rescheduling
        sampler would otherwise keep the event queue non-empty forever.
        """
        if self.sampler._running:
            self.sampler.stop()
            self.sample(self.sim.now)

    # -- sampling -----------------------------------------------------------

    def sample(self, t: float) -> None:
        """Snapshot every watched quantity at simulated time ``t``."""
        for addr, mi in self._processes.items():
            plan = self._plans.get(addr)
            if plan is None or plan.n_pvars != mi.hg.pvars.num_pvars:
                plan = self._plans[addr] = self._build_plan(
                    self._labels[addr], mi.hg.pvars, mi
                )
                self.plan_rebuilds += 1
            self._sample_pvars(t, plan)
            self._sample_tasking(t, mi, plan)
        if self.fabric is not None:
            fp = self._fabric_plan
            if fp is None:
                fp = self._fabric_plan = (
                    self.registry.gauge(
                        "fabric_inflight_bytes",
                        "Bytes currently on the wire (sent, not yet "
                        "delivered)",
                        None,
                    ),
                    self.store.series("fabric_inflight_bytes", None),
                    self.registry.counter(
                        "fabric_total_bytes",
                        "Cumulative bytes injected into the fabric",
                        None,
                    ),
                    self.store.series("fabric_total_bytes", None),
                )
            inflight = self.fabric.inflight_bytes
            fp[0].set(inflight)
            fp[1].append(t, inflight)
            total = self.fabric.total_bytes
            fp[2].set_total(total)
            fp[3].append(t, total)
        # Self-observability: the monitor's own overhead PVARs.
        plan = self._self_plan
        if plan is None:
            plan = self._self_plan = self._build_plan(
                (("process", "__monitor__"),), self.pvars
            )
        self._sample_pvars(t, plan)
        for detector in self.detectors:
            self.findings.extend(detector.on_sample(t, self))

    def _build_plan(
        self, labels: tuple, pvars: PvarRegistry, mi: Optional["MargoInstance"] = None
    ) -> _ProcessPlan:
        """Resolve every name/PVAR lookup the sampler will make for one
        process once, so the per-tick hot loop touches only cached
        handles.  Without ``mi`` the plan covers the PVARs only."""
        names = pvars.names
        rows = self._templates.get(names)
        if rows is None:
            rows = self._templates[names] = tuple(
                (slot, f"pvar_{d.name}", d.description,
                 d.pvar_class is PvarClass.COUNTER)
                for slot, d in enumerate(map(pvars.info, range(len(names))))
                # HANDLE-bound values have no global snapshot.
                if d.binding is PvarBinding.NO_OBJECT
            )
        plan = _ProcessPlan()
        plan.n_pvars = len(names)
        plan.labels = labels
        plan.rows = rows
        plan.values = pvars.slot_values
        plan.getters = [pvars.info(row[0]).getter for row in rows]
        plan.metrics = [None] * len(rows)
        plan.series = [None] * len(rows)
        if mi is None:
            plan.pool = plan.depth_hist = None
            return plan
        plan.pool = mi.handler_pool
        registry = self.registry
        store = self.store
        for name, help in _TASKING_GAUGES:
            key = (name, labels)
            plan.metrics.append(registry._gauge_at(key, help))
            plan.series.append(store._series_at(key))
        plan.depth_hist = registry._histogram_at(
            ("abt_handler_pool_depth_hist", labels),
            "Distribution of sampled handler-pool depths",
        )
        return plan

    def _sample_pvars(self, t: float, plan: _ProcessPlan) -> None:
        values = plan.values
        getters = plan.getters
        metrics = plan.metrics
        series = plan.series
        for i, (slot, name, help, is_counter) in enumerate(plan.rows):
            getter = getters[i]
            value = values[slot] if getter is None else getter()
            if value is None:
                continue  # LOWWATERMARK with no sample yet
            metric = metrics[i]
            if metric is None:
                key = (name, plan.labels)
                if is_counter:
                    metric = self.registry._counter_at(key, help)
                else:
                    metric = self.registry._gauge_at(key, help)
                metrics[i] = metric
                series[i] = self.store._series_at(key)
            if is_counter:
                metric.set_total(value)
            else:
                metric.set(value)
            series[i].append(t, value)

    def _sample_tasking(
        self, t: float, mi: "MargoInstance", plan: _ProcessPlan
    ) -> None:
        rt = mi.rt
        depth = len(plan.pool)
        plan.depth_hist.observe(depth)
        metrics = plan.metrics
        series = plan.series
        i = len(plan.rows)
        # busy_fraction() is a pure read; ProcessStats.cpu_utilization()
        # would perturb the delta-sample state the trace layer shares.
        for value in (
            depth,
            rt.num_ready,
            rt.num_blocked,
            rt.num_running,
            rt.busy_fraction(),
            mi.stats.memory_bytes,
        ):
            metrics[i].set(value)
            series[i].append(t, value)
            i += 1

    # -- reporting ----------------------------------------------------------

    def findings_report(self) -> str:
        """Deterministic plain-text finding timeline."""
        lines = [f"anomaly findings ({len(self.findings)}):"]
        for f in self.findings:
            lines.append(
                f"  {f.time * 1e3:12.6f} ms  {f.detector:<24} "
                f"{f.process:<14} {f.message}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Monitor(processes={len(self._processes)}, "
            f"series={len(self.store)}, findings={len(self.findings)})"
        )
