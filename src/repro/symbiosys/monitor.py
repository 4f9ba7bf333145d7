"""Online monitoring: the always-on half of SYMBIOSYS.

The paper's workflow is post-mortem (profiles and traces consolidate
after the run); this module watches the run *while it unfolds*.  A
:class:`Monitor` attaches to the same seams the instrumentation layer
uses and drives a sim-clock-periodic
:class:`~repro.sim.PeriodicSampler` that snapshots, per process:

* every NO_OBJECT Mercury PVAR (Table I classes, resilience gauges
  included),
* Argobots pool depths, blocked/ready/running ULT counts, and the
  execution-stream busy fraction,
* process memory and fabric-wide in-flight bytes,

into a :class:`~repro.symbiosys.metrics.SeriesStore`: one bounded
ring of rows per process, a row per tick.  Each series is its
metric, and a snapshot (:meth:`Monitor.collect`) reads its latest
sample.  Progress-loop liveness comes from Mercury's own record
(``HGCore.progress_iterations`` / ``HGCore.last_progress``).  A
:class:`SchedRecorder` hooks the Argobots execution streams and records
every ULT run slice (and the block interval between slices) for the
Perfetto timeline, and pluggable
:class:`AnomalyDetector` s evaluate each snapshot and emit timestamped
:class:`Finding` s during the run.

With :attr:`MonitorConfig.autotune` set, the monitor also acts on two
findings with the paper's §V-C (Table IV) remedies, the policy-driven
loop the paper names as future work: ``ofi_reads_pegged`` (Figure 12)
doubles ``OFI_max_events`` and ``completion_backlog`` (Figure 11's C6
-> C7 step) gives the progress loop its own execution stream.  Each
applied remedy is logged as an ``"autotune"`` finding.

Everything here is deterministic: sampling ticks ride the simulator's
event queue (so they interleave identically for identical seeds), no
wall clock is ever read, and nothing exported contains process-global
counter artifacts (ULT ids, HG cookies).  Unless ``autotune`` is set,
sampler callbacks are pure observers -- they read simulator state but
add no simulated cost, so the simulated makespan of a monitored run
equals the unmonitored one.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional

from ..argobots.ult import BLOCKED, READY, TERMINATED
from ..config import Replaceable
from ..mercury.pvar import PvarBinding, PvarClass, PvarDef, PvarRegistry, PvarTable
from ..sim import PeriodicSampler
from .metrics import SeriesStore, TimeSeries

if TYPE_CHECKING:  # pragma: no cover
    from ..argobots import ULT
    from ..argobots.xstream import ExecutionStream
    from ..margo import MargoInstance
    from ..net import Fabric
    from ..sim import Simulator

__all__ = [
    "AnomalyDetector",
    "CompletionBacklogDetector",
    "Finding",
    "ForwardTimeoutBurstDetector",
    "Monitor",
    "MonitorConfig",
    "OfiReadsPeggedDetector",
    "ProgressStarvationDetector",
    "QueueDepthWatermarkDetector",
    "SchedRecorder",
    "SchedSlice",
]


#: Ring-buffer capacity, in rows, of each block of samples.
RING_CAPACITY = 4096
_NAN = float("nan")
#: Cap on recorded scheduler slices (run + block), monitor-wide.
SCHED_SLICE_CAPACITY = 65536
#: ``completion_backlog``: the OFI plus Mercury completion-queue depth
#: that counts as a backlog.
BACKLOG_DEPTH = 8
#: The most ``OFI_max_events`` the autotune remedy raises the cap to.
OFI_MAX_EVENTS_CEILING = 64


@dataclass(frozen=True, kw_only=True)
class MonitorConfig(Replaceable):
    """Configuration of one :class:`Monitor`.

    The monitor always arms the five built-in anomaly detectors; append
    any other :class:`AnomalyDetector` to :attr:`Monitor.detectors`.
    """

    #: Sampling period on the *simulated* clock, seconds.
    interval: float = 100e-6
    #: Progress-ULT starvation: a process with completion-queue backlog
    #: but no progress-loop iteration for this long is starved.
    starvation_threshold: float = 0.5e-3
    #: Handler-pool queue depth that trips the watermark detector.
    queue_watermark: int = 8
    #: Forward-timeout burst: this many timeouts ...
    timeout_burst_count: int = 3
    #: ... within this window, seconds.
    timeout_burst_window: float = 1e-3
    #: Apply the Table IV remedy of every ``ofi_reads_pegged`` and
    #: ``completion_backlog`` finding to the live process (needs
    #: Mercury PVARs, i.e. :attr:`~repro.symbiosys.Stage.FULL`).
    autotune: bool = False

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError("monitor interval must be positive")
        if self.starvation_threshold <= 0:
            raise ValueError("starvation_threshold must be positive")
        if self.queue_watermark < 1:
            raise ValueError("queue_watermark must be positive")
        if self.timeout_burst_count < 1:
            raise ValueError("timeout_burst_count must be positive")
        if self.timeout_burst_window <= 0:
            raise ValueError("timeout_burst_window must be positive")


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
            last = mi.hg.last_progress
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
        #: Per process that has timed out: its last seen total.
        self._last_total: dict[str, int] = {}
        #: Per process: (time, delta) increments inside the window, for
        #: as long as there are any.
        self._recent: dict[str, list[tuple[float, int]]] = {}
        self._bursting: set[str] = set()

    def on_sample(self, t: float, monitor: "Monitor") -> list[Finding]:
        findings = []
        for addr, mi in monitor.iter_processes():
            total = mi.hg.pvars.raw_value("num_forward_timeouts")
            delta = total - self._last_total.get(addr, 0)
            recent = self._recent.get(addr)
            if recent is None:
                if delta <= 0:
                    continue  # nothing in the window, nothing new
                recent = self._recent[addr] = []
            if delta > 0:
                self._last_total[addr] = total
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
            if not recent:
                del self._recent[addr]
        return findings


class _WindowDetector(AnomalyDetector):
    """Base of the two autotune detectors: a process's ``level`` at or
    above its ``threshold`` in ``needed`` of the last ``window`` ticks,
    once the monitor has taken ``window`` ticks.

    Reports the onset only, so each finding can be acted on.  Re-arms
    once a whole window passes below the threshold, or on a fresh
    window when the threshold changes.  Keeps state only for processes
    with a tick at the threshold in the window; a crashed process never
    has one (its last reading is out of date).
    """

    window = 4
    needed = 3
    #: What ``level`` measures, for the finding's message.
    what = "level"

    def __init__(self, config: MonitorConfig):
        self._ticks = 0
        #: Per process: (threshold, window bits newest lowest, fired).
        self._state: dict[str, tuple[int, int, bool]] = {}

    def level(self, mi: "MargoInstance") -> int:  # pragma: no cover - interface
        raise NotImplementedError

    def threshold(self, mi: "MargoInstance") -> int:  # pragma: no cover - interface
        raise NotImplementedError

    def on_sample(self, t: float, monitor: "Monitor") -> list[Finding]:
        self._ticks += 1
        findings = []
        state = self._state
        mask = (1 << self.window) - 1
        for addr, mi in monitor.iter_processes():
            level = self.level(mi)
            threshold = self.threshold(mi)
            hit = level >= threshold and not mi.crashed
            st = state.get(addr)
            if st is None:
                if not hit:
                    continue
                m, fired = 1, False
            else:
                if st[0] != threshold:  # a fresh window
                    m, fired = hit, False
                else:
                    m, fired = (st[1] << 1 | hit) & mask, st[2]
                if not m:
                    del state[addr]
                    continue
            fire = (
                not fired
                and self._ticks >= self.window
                and m.bit_count() >= self.needed
            )
            state[addr] = (threshold, m, fired or fire)
            if fire:
                findings.append(
                    Finding(
                        t,
                        self.name,
                        addr,
                        f"{self.what} {level} >= {threshold} in "
                        f"{m.bit_count()} of the last {self.window} ticks",
                        value=level,
                    )
                )
        return findings


class OfiReadsPeggedDetector(_WindowDetector):
    """The progress loop's OFI reads keep hitting ``OFI_max_events``
    while completions are left in the OFI completion queue: Figure 12's
    C5 signature, a queue backed up behind the read cap.  The cap is
    the threshold, so raising it re-arms the detector.
    """

    name = "ofi_reads_pegged"
    what = "OFI events read"

    def level(self, mi: "MargoInstance") -> int:
        # The PVAR keeps the last read until the next progress
        # iteration: a capped read means a backed-up queue only while
        # one is left.
        if not mi.endpoint.cq_depth:
            return 0
        return mi.hg.pvars.raw_value("num_ofi_events_read")

    def threshold(self, mi: "MargoInstance") -> int:
        return mi.hg.ofi_max_events


class CompletionBacklogDetector(_WindowDetector):
    """Completions pile up faster than the progress loop drains them
    (OFI completion-queue depth plus Mercury's ``completion_queue_size``):
    Figure 11's C6 -> C7 signature, a progress ULT short of CPU on the
    execution stream it shares."""

    name = "completion_backlog"
    what = "completion queue depth"
    window = 16
    needed = 8

    def level(self, mi: "MargoInstance") -> int:
        return mi.endpoint.cq_depth + mi.hg.pvars.raw_value("completion_queue_size")

    def threshold(self, mi: "MargoInstance") -> int:
        return BACKLOG_DEPTH


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
    dispatch from the block time the ES keeps on the ULT
    (``ULT.blocked_at``).  Bounded: past ``capacity`` slices it counts
    drops instead of growing, and :attr:`dropped_from` marks where the
    record stops covering the run.

    The hook fires on *every* ULT dispatch, so recording is columnar:
    one slice is scalar appends into flat arrays with names interned to
    integer ids.  An execution stream's process and ES names resolve
    once, to the ES's index; a slice costs one lookup for the ES and
    one for the ULT name.  :attr:`slices` materializes (and caches) the
    :class:`SchedSlice` views for the exporters.
    """

    def __init__(self, capacity: int = SCHED_SLICE_CAPACITY):
        self.capacity = capacity
        self.dropped = 0
        #: Simulated time from which the record is incomplete: the
        #: earliest start of any dropped slice (None while nothing is
        #: dropped).  A slice reported after the cap may start before
        #: the first one dropped (a long block), so this is a minimum.
        self.dropped_from: Optional[float] = None
        self._n = 0
        #: id(ES) -> its index in ``_es_names``: the ES (held, so that
        #: its id stays its own) and its (process, es) name ids.
        self._es_index: dict[int, int] = {}
        self._es_names: list[tuple["ExecutionStream", int, int]] = []
        self._es = array("q")  # ES index per slice
        self._ult = array("q")  # ULT-name id per slice
        self._kind = array("b")  # 0 = run, 1 = block
        self._reason = array("b")  # index into _SLICE_REASONS
        self._start = array("d")
        self._end = array("d")
        self._strings: list[str] = []
        self._str_ids: dict[str, int] = {}
        self._mat: list[SchedSlice] = []

    def _intern(self, s: str) -> int:
        i = self._str_ids.get(s)
        if i is None:
            i = self._str_ids[s] = len(self._strings)
            self._strings.append(s)
        return i

    def _add_es(self, es: "ExecutionStream") -> int:
        i = self._es_index[id(es)] = len(self._es_names)
        self._es_names.append(
            (es, self._intern(es.runtime.name), self._intern(es.name))
        )
        return i

    def on_slice(
        self, es: "ExecutionStream", ult: "ULT", start: float, end: float
    ) -> None:
        """Called by the ES when a ULT leaves it (xstream hook)."""
        n = self._n
        capacity = self.capacity
        blocked_since = ult.blocked_at
        es_i = self._es_index.get(id(es))
        if es_i is None:
            es_i = self._add_es(es)
        ult_id = self._str_ids.get(ult.name)
        if ult_id is None:
            ult_id = self._intern(ult.name)
        if blocked_since is not None:
            if n < capacity:
                self._es.append(es_i)
                self._ult.append(ult_id)
                self._kind.append(1)
                self._reason.append(0)
                self._start.append(blocked_since)
                self._end.append(start)
                n += 1
            else:
                self._drop(blocked_since)
        # The state the ULT leaves its slice in; any other state (an
        # exception unwound through the ES) is "preempt".
        state = ult.state
        if state is BLOCKED:
            reason = 2
        elif state is READY:
            reason = 3
        elif state is TERMINATED:
            reason = 1
        else:
            reason = 4
        if n < capacity:
            self._es.append(es_i)
            self._ult.append(ult_id)
            self._kind.append(0)
            self._reason.append(reason)
            self._start.append(start)
            self._end.append(end)
            n += 1
        else:
            self._drop(start)
        self._n = n

    def _drop(self, start: float) -> None:
        self.dropped += 1
        if self.dropped_from is None or start < self.dropped_from:
            self.dropped_from = start

    @property
    def slices(self) -> list[SchedSlice]:
        """Materialized slice views, in recording order (cached)."""
        mat = self._mat
        n = self._n
        if len(mat) != n:
            strings = self._strings
            es_names = self._es_names
            es_of = self._es
            ult_of = self._ult
            kind = self._kind
            reason = self._reason
            start = self._start
            end = self._end
            for i in range(len(mat), n):
                _, proc, es = es_names[es_of[i]]
                mat.append(
                    SchedSlice(
                        process=strings[proc],
                        es=strings[es],
                        ult=strings[ult_of[i]],
                        kind="block" if kind[i] else "run",
                        start=start[i],
                        end=end[i],
                        reason=_SLICE_REASONS[reason[i]],
                    )
                )
        return mat

    def __len__(self) -> int:
        return self._n


#: Per-process tasking gauges, in sampling order.  They follow the
#: PVAR rows in each plan's ``series`` list.
_TASKING_GAUGES = (
    ("abt_handler_pool_depth", "ULTs queued in the handler pool"),
    ("abt_num_ready", "ULTs queued in pools, waiting for an ES"),
    ("abt_num_blocked", "ULTs blocked on an eventual or mutex"),
    ("abt_num_running", "ULTs currently executing on an ES"),
    ("abt_busy_fraction", "Mean cumulative ES busy time over elapsed time"),
    ("process_memory_bytes", "Simulated process memory gauge"),
)

#: The monitor's other metric families (the ``pvar_*`` families take
#: their kind and help from each PVAR definition).
_FAMILIES = (
    (
        "abt_handler_pool_depth_hist",
        "histogram",
        "Distribution of sampled handler-pool depths",
    ),
    (
        "fabric_inflight_bytes",
        "gauge",
        "Bytes currently on the wire (sent, not yet delivered)",
    ),
    (
        "fabric_total_bytes",
        "counter",
        "Cumulative bytes injected into the fabric",
    ),
    ("hg_progress_iterations", "counter", "Progress-loop iterations completed"),
)


#: The monitor's own overhead PVARs; getters read the monitor they are
#: given.
_MONITOR_PVARS = PvarTable((
    PvarDef(
        "monitor_samples_taken",
        PvarClass.COUNTER,
        PvarBinding.NO_OBJECT,
        "Sampler ticks completed by the monitor",
        getter=lambda m: m.sampler.ticks,
    ),
    PvarDef(
        "monitor_plan_rebuilds",
        PvarClass.COUNTER,
        PvarBinding.NO_OBJECT,
        "Per-process sampling-plan rebuilds (staleness-triggered)",
        getter=lambda m: m.plan_rebuilds,
    ),
    PvarDef(
        "monitor_sched_slices",
        PvarClass.LEVEL,
        PvarBinding.NO_OBJECT,
        "Scheduler slices held in the columnar recorder",
        getter=lambda m: len(m.sched),
    ),
    PvarDef(
        "monitor_sched_slice_highwater",
        PvarClass.HIGHWATERMARK,
        PvarBinding.NO_OBJECT,
        "Deepest recorded fill of the scheduler-slice buffer",
        getter=lambda m: len(m.sched),
    ),
    PvarDef(
        "monitor_sched_slices_dropped",
        PvarClass.COUNTER,
        PvarBinding.NO_OBJECT,
        "Scheduler slices dropped past the capacity cap",
        getter=lambda m: m.sched.dropped,
    ),
))


class _ProcessPlan:
    """Per-process sampling plan: every name/label/PVAR-index resolution
    the sampler needs, done once at build time instead of every tick.

    ``rows`` is the schema's shared row template, one
    ``(slot, metric name, is_counter, getter)`` tuple per NO_OBJECT
    PVAR; a row's value is ``values[slot]``, passed through ``getter``
    when there is one (the slot then holds the getter's owner).
    ``block`` is the plan's :class:`~repro.symbiosys.metrics.RowBlock`:
    one row per tick holding the PVAR values in template order, then
    the tasking gauges.  A PVAR whose value is None (a LOWWATERMARK
    with no sample yet) leaves its column unstarted, so its series
    exists only from its first value on.  ``floors`` holds each
    counter column's previous value (NaN before the first), the bound
    its next sample may not go below.

    Built at the monitor's first sample of the process, which fixes its
    PVAR schema: a PVAR defined later makes the next sample raise (the
    ``n_pvars`` check in :meth:`Monitor.sample`).  The registry, the
    Argobots runtime and the handler pool are assigned once per
    :class:`~repro.margo.instance.MargoInstance`, so they need no check.
    """

    __slots__ = ("n_pvars", "pool", "rows", "values", "block", "floors", "depth_hist")


def _raise_ofi_max_events(mi: "MargoInstance") -> str:
    """Figure 12's remedy: double the OFI read cap, up to the ceiling."""
    old = mi.hg.ofi_max_events
    new = min(2 * old, OFI_MAX_EVENTS_CEILING)
    if new <= old:
        return ""
    mi.set_ofi_max_events(new)
    return f"OFI_max_events {old} -> {new}"


def _dedicate_progress_es(mi: "MargoInstance") -> str:
    """Figure 11's C6 -> C7 remedy: a progress execution stream."""
    if not mi.enable_progress_thread():
        return ""
    return "progress loop moved to a dedicated ES"


#: The ``detector`` of the findings that log applied remedies.
AUTOTUNE = "autotune"
#: Finding detector -> remedy; a remedy returns what it changed, or ""
#: when there was nothing left to change.
_REMEDIES = {
    OfiReadsPeggedDetector.name: _raise_ofi_max_events,
    CompletionBacklogDetector.name: _dedicate_progress_es,
}


def _append_total(ts: TimeSeries, t: float, total: float) -> None:
    """Append a sample of a cumulative counter, which never decreases."""
    last = ts.latest()
    if last is not None and float(total) < last[1]:
        raise ValueError(
            f"counter {ts.name!r} cannot go backward ({total} < {last[1]})"
        )
    ts.append(t, total)


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
        self.store = SeriesStore(RING_CAPACITY)
        for name, help in _TASKING_GAUGES:
            self.store.family(name, "gauge", help)
        for name, kind, help in _FAMILIES:
            self.store.family(name, kind, help)
        self.sched = SchedRecorder(SCHED_SLICE_CAPACITY)
        #: Per-process sampling plans built since start (one per
        #: sampled process; exported as ``monitor_plan_rebuilds``).
        self.plan_rebuilds = 0
        # Self-observability: the monitor's own overhead as PVARs, so
        # the ~1.1x claim is measurable from inside a run.  Exposed
        # through the normal PVAR session interface *and* sampled into
        # pvar_monitor_* series every tick.
        self.pvars = PvarRegistry()
        self.pvars.define_table(_MONITOR_PVARS, self)
        self._self_plan: Optional[_ProcessPlan] = None
        self.findings: list[Finding] = []
        self._processes: dict[str, "MargoInstance"] = {}
        #: addr -> the process's interned ``(("process", addr),)`` labels.
        self._labels: dict[str, tuple] = {}
        self._plans: dict[str, _ProcessPlan] = {}
        #: PVAR name sequence -> (row template, block columns); see
        #: :class:`_ProcessPlan`.
        self._templates: dict[tuple[str, ...], tuple] = {}
        self._fabric_plan: Optional[tuple] = None
        self.detectors: list[AnomalyDetector] = [
            ProgressStarvationDetector(self.config),
            QueueDepthWatermarkDetector(self.config),
            ForwardTimeoutBurstDetector(self.config),
            OfiReadsPeggedDetector(self.config),
            CompletionBacklogDetector(self.config),
        ]
        self.sampler = PeriodicSampler(sim, self.config.interval, self.sample)

    # -- wiring -------------------------------------------------------------

    def attach(self, mi: "MargoInstance") -> None:
        """Adopt one process: hook its scheduler."""
        if mi.addr in self._processes:
            raise ValueError(f"process {mi.addr!r} already monitored")
        if self.config.autotune and not mi.hg.pvars_enabled:
            raise ValueError(
                f"autotune needs Mercury PVARs, which are off on {mi.addr!r} "
                "(a stage below FULL)"
            )
        self._processes[mi.addr] = mi
        self._labels[mi.addr] = (("process", mi.addr),)
        mi.rt.add_sched_observer(self.sched)

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
        if self.sampler.running:
            self.sampler.stop()
            self._snapshot(self.sim.now)

    # -- sampling -----------------------------------------------------------

    def sample(self, t: float) -> None:
        """Snapshot every watched quantity at simulated time ``t``, then
        (with ``autotune``) apply the remedies of the tick's findings."""
        first = len(self.findings)
        self._snapshot(t)
        if self.config.autotune:
            for f in self.findings[first:]:
                remedy = _REMEDIES.get(f.detector)
                mi = self._processes.get(f.process)
                if remedy is None or mi is None or mi.crashed:
                    continue
                action = remedy(mi)
                if action:
                    self.findings.append(Finding(t, AUTOTUNE, f.process, action))

    def _snapshot(self, t: float) -> None:
        for addr, mi in self._processes.items():
            plan = self._plans.get(addr)
            if plan is None:
                plan = self._plans[addr] = self._build_plan(
                    self._labels[addr], mi.hg.pvars, mi
                )
                self.plan_rebuilds += 1
            elif plan.n_pvars != mi.hg.pvars.num_pvars:
                raise ValueError(
                    f"process {addr!r} defined a PVAR after its first "
                    "monitor sample; define every PVAR before the run"
                )
            row = self._pvar_row(t, plan)
            rt = mi.rt
            depth = len(plan.pool)
            plan.depth_hist.observe(depth)
            # busy_fraction() is a pure read; ProcessStats.cpu_utilization()
            # would perturb the delta-sample state the trace layer shares.
            row += (
                depth,
                rt.num_ready,
                rt.num_blocked,
                rt.num_running,
                rt.busy_fraction(),
                mi.stats.memory_bytes,
            )
            plan.block.append_row(row)
        if self.fabric is not None:
            fp = self._fabric_plan
            if fp is None:
                fp = self._fabric_plan = (
                    self.store.series("fabric_inflight_bytes"),
                    self.store.series("fabric_total_bytes"),
                )
            fp[0].append(t, self.fabric.inflight_bytes)
            _append_total(fp[1], t, self.fabric.total_bytes)
        # Self-observability: the monitor's own overhead PVARs.
        plan = self._self_plan
        if plan is None:
            plan = self._self_plan = self._build_plan(
                (("process", "__monitor__"),), self.pvars
            )
        plan.block.append_row(self._pvar_row(t, plan))
        for detector in self.detectors:
            self.findings.extend(detector.on_sample(t, self))

    def _build_plan(
        self,
        labels: tuple,
        pvars: PvarRegistry,
        mi: Optional["MargoInstance"] = None,
    ) -> _ProcessPlan:
        """Resolve every name/PVAR lookup the sampler will make for one
        process once, so the per-tick hot loop touches only cached
        handles.  Without ``mi`` the plan covers the PVARs only."""
        names = pvars.names
        template = self._templates.get(names)
        if template is None:
            template = self._templates[names] = self._build_template(pvars)
        rows, columns = template
        plan = _ProcessPlan()
        plan.n_pvars = len(names)
        plan.rows = rows
        plan.values = pvars.slot_values
        plan.floors = array("d", [_NAN]) * len(rows)
        if mi is None:
            columns = columns[: len(rows)]
            plan.pool = plan.depth_hist = None
        else:
            plan.pool = mi.handler_pool
            plan.depth_hist = self.store.add_histogram(
                "abt_handler_pool_depth_hist", labels
            )
        plan.block = self.store.add_block(columns, labels)
        return plan

    def _build_template(self, pvars: PvarRegistry) -> tuple:
        """One row per NO_OBJECT PVAR of a registry schema, checking
        each row's metric family once for every process that shares the
        schema, and the block columns those rows and the tasking gauges
        fill."""
        rows = []
        for slot, d in enumerate(map(pvars.info, range(pvars.num_pvars))):
            if d.binding is not PvarBinding.NO_OBJECT:
                continue  # HANDLE-bound values have no global snapshot
            name = f"pvar_{d.name}"
            is_counter = d.pvar_class is PvarClass.COUNTER
            self.store.family(
                name, "counter" if is_counter else "gauge", d.description
            )
            rows.append((slot, name, is_counter, d.getter))
        columns = tuple(r[1] for r in rows) + tuple(n for n, _ in _TASKING_GAUGES)
        return tuple(rows), columns

    def _pvar_row(self, t: float, plan: _ProcessPlan) -> list:
        """``[t, value, ...]`` in template order; a counter below its
        previous value raises before the row is recorded."""
        values = plan.values
        floors = plan.floors
        row = [t]
        for c, (slot, name, is_counter, getter) in enumerate(plan.rows):
            value = values[slot]
            if getter is not None:
                value = getter(value)
            if is_counter and value is not None:
                if float(value) < floors[c]:
                    raise ValueError(
                        f"counter {name!r} cannot go backward "
                        f"({value} < {floors[c]})"
                    )
                floors[c] = value
            row.append(value)
        return row

    # -- reporting ----------------------------------------------------------

    def collect(self) -> Iterator[tuple[str, str, str, list[tuple]]]:
        """Yield ``(name, kind, help, instances)`` per metric family
        with an instance, sorted by name; instances are ``(labels,
        value)`` pairs sorted by labels, the value a number for a
        counter or gauge and a :class:`~repro.symbiosys.metrics.Histogram`
        for a histogram.

        A sampled counter or gauge is its series' latest sample;
        ``hg_progress_iterations`` is each process's Mercury progress
        record, for processes whose loop has run.
        """
        store = self.store
        by_family: dict[str, list[tuple]] = {}
        for ts in store.all_series():
            if store.family_info(ts.name) is not None:
                by_family.setdefault(ts.name, []).append(
                    (ts.labels, ts.latest()[1])
                )
        for hist in store.histograms:
            by_family.setdefault(hist.name, []).append((hist.labels, hist))
        for addr, mi in self._processes.items():
            if mi.hg.progress_iterations:
                by_family.setdefault("hg_progress_iterations", []).append(
                    (self._labels[addr], mi.hg.progress_iterations)
                )
        for name in sorted(by_family):
            kind, help = store.family_info(name)
            instances = sorted(by_family[name], key=lambda inst: inst[0])
            yield name, kind, help, instances

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
