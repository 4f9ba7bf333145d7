"""Batched deterministic writer for the performance store.

All appends accumulate in per-table row buffers and land in one
``executemany`` batch per table at :meth:`StoreWriter.flush` -- a run's
worth of telemetry is one transaction, not ten thousand.  Row order is
deterministic: series are written in sorted ``(name, labels)`` order
(the exporters' order), events/slices/findings in recording order, so
two same-seed runs produce row-for-row identical stores.

The free functions at the bottom are the high-level sinks the rest of
the stack calls: :func:`record_cluster_run` (what ``Cluster(store=...)``
invokes at shutdown) and :func:`record_overhead_study`.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Iterable, Optional, Union

if TYPE_CHECKING:  # pragma: no cover
    from ..symbiosys.metrics import MetricsRegistry, SeriesStore
    from ..symbiosys.monitor import Finding, SchedSlice
    from ..symbiosys.profiling import ProfileStore
    from ..symbiosys.tracing import TraceEvent
    from . import PerfStore

__all__ = [
    "StoreWriter",
    "labels_to_text",
    "record_cluster_run",
    "record_overhead_study",
]


def labels_to_text(labels) -> str:
    """Canonical label rendering: sorted ``k=v`` pairs joined with
    ``|`` -- the same string the CSV exporter prints, so store rows and
    CSV rows key identically."""
    if not labels:
        return ""
    if isinstance(labels, dict):
        labels = sorted((str(k), str(v)) for k, v in labels.items())
    return "|".join(f"{k}={v}" for k, v in labels)


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class StoreWriter:
    """Batched writes into one :class:`~repro.store.PerfStore`.

    Use as a context manager (flushes on clean exit) or call
    :meth:`flush` explicitly.  One writer may record several runs.
    """

    def __init__(self, store: "PerfStore"):
        self.store = store
        self._runs: list[tuple] = []
        self._run_ids: list[int] = []
        self._metrics: list[tuple] = []  # (run, name, labels, kind, help)
        self._samples: list[tuple] = []  # (run, name, labels, t, value)
        self._events: list[tuple] = []
        self._slices: list[tuple] = []
        self._findings: list[tuple] = []
        self._retries: list[tuple] = []
        self._breakdowns: list[tuple] = []
        self._profiles: list[tuple] = []
        self._callpath_names: list[tuple] = []

    # -- runs ---------------------------------------------------------------

    def begin_run(
        self,
        name: str,
        *,
        kind: str = "cluster",
        seed: Optional[int] = None,
        config: Optional[dict] = None,
        tags: Optional[dict] = None,
        extra: Optional[dict] = None,
        created: str = "",
    ) -> int:
        """Allocate a run id (immediately, so references work) and queue
        the run row."""
        conn = self.store.conn
        cur = conn.execute(
            "INSERT INTO runs (name, kind, seed, config, tags, extra, created)"
            " VALUES (?, ?, ?, ?, ?, ?, ?)",
            (
                name, kind, seed,
                _dumps(config or {}), _dumps(tags or {}), _dumps(extra or {}),
                created,
            ),
        )
        run_id = cur.lastrowid
        self._run_ids.append(run_id)
        return run_id

    # -- metric time-series -------------------------------------------------

    def add_series(
        self,
        run_id: int,
        name: str,
        labels,
        samples: Iterable[tuple[float, float]],
        *,
        kind: str = "gauge",
        help: str = "",
    ) -> None:
        text = labels_to_text(labels)
        self._metrics.append((run_id, name, text, kind, help))
        self._samples.extend(
            (run_id, name, text, t, v) for t, v in samples
        )

    def record_series_store(
        self,
        run_id: int,
        store: "SeriesStore",
        registry: Optional["MetricsRegistry"] = None,
    ) -> None:
        """Every time-series of a monitor's store, in sorted export
        order; metric kind/help come from the registry when known."""
        for ts in store.all_series():
            kind, help = "gauge", ""
            if registry is not None:
                try:
                    kind, help = registry.family_info(ts.name)
                except KeyError:
                    pass
            self.add_series(
                run_id, ts.name, ts.labels, ts.samples(),
                kind=kind, help=help,
            )

    def record_findings(
        self, run_id: int, findings: Iterable["Finding"]
    ) -> None:
        base = len(self._findings)
        self._findings.extend(
            (run_id, base + i, f.time, f.detector, f.process, f.message,
             f.value, getattr(f, "wait_state", ""))
            for i, f in enumerate(findings)
        )

    def record_retries(self, run_id: int, retries: Iterable) -> None:
        """Retry/timeout records from the collector's forward hooks."""
        base = len(self._retries)
        self._retries.extend(
            (run_id, base + i, r.time, r.process, r.request_id, r.rpc_name,
             r.attempt, r.delay, r.target, r.kind)
            for i, r in enumerate(retries)
        )

    def record_breakdowns(self, run_id: int, report) -> None:
        """Per-request critical-path decompositions of one
        :class:`~repro.symbiosys.critical.CriticalReport`, one row per
        breakdown, JSON for the nested category/segment/blame shapes."""
        base = len(self._breakdowns)
        self._breakdowns.extend(
            (
                run_id, base + i, bd.request_id, bd.span_id, bd.rpc_name,
                bd.origin, bd.target, bd.start_ps, bd.total_ps,
                bd.start_true, bd.end_true, bd.n_faults,
                _dumps(dict(bd.categories)),
                _dumps([list(seg) for seg in bd.segments]),
                _dumps([[b.category, b.occupant, b.overlap_ps]
                        for b in bd.blame]),
            )
            for i, bd in enumerate(report.breakdowns)
        )

    def record_sched_slices(
        self, run_id: int, slices: Iterable["SchedSlice"]
    ) -> None:
        base = len(self._slices)
        self._slices.extend(
            (run_id, base + i, s.process, s.es, s.ult, s.kind, s.start,
             s.end, s.reason)
            for i, s in enumerate(slices)
        )

    # -- traces and profiles ------------------------------------------------

    def record_trace_events(
        self, run_id: int, events: Iterable["TraceEvent"]
    ) -> None:
        base = len(self._events)
        self._events.extend(
            (
                run_id, base + i, ev.kind.value, ev.request_id, ev.order,
                ev.lamport, ev.process, ev.local_ts, ev.true_ts,
                ev.rpc_name, ev.callpath, ev.span_id, ev.parent_span_id,
                ev.provider_id, _dumps(ev.data), _dumps(ev.pvars),
                _dumps(ev.sysstats),
            )
            for i, ev in enumerate(events)
        )

    def record_profile(
        self,
        run_id: int,
        side: str,
        store: "ProfileStore",
        registry=None,
    ) -> None:
        """Flatten one callpath-profile store (count/total/min/max plus
        the distribution reservoir) in sorted key order."""
        for key in sorted(
            store.keys(), key=lambda k: (k.callpath, k.origin, k.target)
        ):
            name = registry.decode(key.callpath) if registry else ""
            for interval, stats in sorted(store.intervals_for(key).items()):
                self._profiles.append(
                    (
                        run_id, side, key.callpath, name, key.origin,
                        key.target, interval, stats.count, stats.total,
                        stats.minimum, stats.maximum,
                        _dumps(stats.samples()),
                    )
                )

    def record_callpath_names(self, run_id: int, registry) -> None:
        """Persist the component-hash -> RPC-name map so archived
        callpaths decode without the live registry."""
        from ..symbiosys.callpath import hash16

        for name in registry.known_names():
            self._callpath_names.append((run_id, hash16(name), name))

    def record_collector(self, run_id: int, collector) -> None:
        """Everything a SYMBIOSYS collector holds: trace events, retry
        records, both profile sides, and the callpath name map."""
        self.record_trace_events(run_id, collector.all_events())
        all_retries = getattr(collector, "all_retries", None)
        if all_retries is not None:
            self.record_retries(run_id, all_retries())
        self.record_profile(
            run_id, "origin", collector.merged_origin_profile(),
            collector.registry,
        )
        self.record_profile(
            run_id, "target", collector.merged_target_profile(),
            collector.registry,
        )
        self.record_callpath_names(run_id, collector.registry)

    # -- flushing -----------------------------------------------------------

    def flush(self) -> None:
        """Write every buffered row in one transaction."""
        conn = self.store.conn
        if self._metrics:
            conn.executemany(
                "INSERT OR IGNORE INTO metrics (run_id, name, labels, kind,"
                " help) VALUES (?, ?, ?, ?, ?)",
                self._metrics,
            )
        if self._samples:
            conn.executemany(
                "INSERT INTO samples (metric_id, t, value) SELECT metric_id,"
                " ?4, ?5 FROM metrics WHERE run_id = ?1 AND name = ?2 AND"
                " labels = ?3",
                self._samples,
            )
        if self._events:
            conn.executemany(
                "INSERT INTO trace_events (run_id, seq, kind, request_id,"
                " ord, lamport, process, local_ts, true_ts, rpc_name,"
                " callpath, span_id, parent_span_id, provider_id, data,"
                " pvars, sysstats) VALUES"
                " (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                self._events,
            )
        if self._slices:
            conn.executemany(
                "INSERT INTO sched_slices (run_id, seq, process, es, ult,"
                " kind, start, end, reason)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                self._slices,
            )
        if self._findings:
            conn.executemany(
                "INSERT INTO findings (run_id, seq, time, detector, process,"
                " message, value, wait_state)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                self._findings,
            )
        if self._retries:
            conn.executemany(
                "INSERT INTO retry_records (run_id, seq, time, process,"
                " request_id, rpc_name, attempt, delay, target, kind)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                self._retries,
            )
        if self._breakdowns:
            conn.executemany(
                "INSERT INTO breakdowns (run_id, seq, request_id, span_id,"
                " rpc_name, origin, target, start_ps, total_ps, start_true,"
                " end_true, n_faults, categories, segments, blame)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                self._breakdowns,
            )
        if self._profiles:
            conn.executemany(
                "INSERT INTO profiles (run_id, side, callpath,"
                " callpath_name, origin, target, interval, count, total,"
                " min, max, reservoir)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                self._profiles,
            )
        if self._callpath_names:
            conn.executemany(
                "INSERT OR IGNORE INTO callpath_names (run_id, component,"
                " name) VALUES (?, ?, ?)",
                self._callpath_names,
            )
        for buf in (
            self._metrics, self._samples, self._events, self._slices,
            self._findings, self._retries, self._breakdowns,
            self._profiles, self._callpath_names,
        ):
            buf.clear()
        conn.commit()

    def __enter__(self) -> "StoreWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            self.flush()
        return False


# -- high-level sinks ---------------------------------------------------------


def _open_writer(store) -> tuple["StoreWriter", bool]:
    """Accept a path, a PerfStore, or a StoreWriter; report whether the
    caller owns (and must close) the underlying store."""
    from . import PerfStore

    if isinstance(store, StoreWriter):
        return store, False
    if isinstance(store, PerfStore):
        return StoreWriter(store), False
    return StoreWriter(PerfStore(store)), True


def record_cluster_run(
    store: Union[str, "PerfStore", "StoreWriter"],
    cluster,
    *,
    name: str = "cluster",
    kind: str = "cluster",
    tags: Optional[dict] = None,
    config: Optional[dict] = None,
    created: str = "",
) -> int:
    """Persist one finished :class:`~repro.cluster.Cluster` run: the
    monitor's telemetry (when monitoring was on) and the collector's
    traces/profiles/breakdowns (when instrumentation was on).  When
    both are present, the critical-path engine runs once here and its
    per-request breakdowns land in the ``breakdowns`` table; detector
    findings are stored with their dominant wait state filled in."""
    writer, own = _open_writer(store)
    try:
        extra = {
            "fault_events": [list(ev) for ev in cluster.fault_events()],
        }
        if cluster.collector is not None:
            extra["resilience"] = cluster.collector.merged_resilience()
        run_id = writer.begin_run(
            name,
            kind=kind,
            seed=getattr(cluster, "seed", None),
            config=config,
            tags=tags,
            extra=extra,
            created=created,
        )
        report = None
        if cluster.collector is not None:
            from ..symbiosys.critical import analyze_collector

            report = analyze_collector(cluster.collector, cluster.monitor)
        if cluster.monitor is not None:
            monitor = cluster.monitor
            findings = monitor.findings
            if report is not None:
                from ..symbiosys.critical import annotate_findings

                findings = annotate_findings(findings, report)
            writer.record_series_store(run_id, monitor.store,
                                       monitor.registry)
            writer.record_findings(run_id, findings)
            writer.record_sched_slices(run_id, monitor.sched.slices)
        if cluster.collector is not None:
            writer.record_collector(run_id, cluster.collector)
            writer.record_breakdowns(run_id, report)
        writer.flush()
        return run_id
    finally:
        if own:
            writer.store.close()


def record_overhead_study(
    store: Union[str, "PerfStore", "StoreWriter"],
    study,
    *,
    name: str = "overhead",
    seed: Optional[int] = None,
    tags: Optional[dict] = None,
    created: str = "",
) -> int:
    """Persist an overhead study's simulated quantities as one run:
    per-stage makespan/trace-count series keyed by a ``stage`` label."""
    writer, own = _open_writer(store)
    try:
        run_id = writer.begin_run(
            name, kind="overhead", seed=seed, tags=tags, created=created,
        )
        for row in study.rows():
            labels = {"stage": row["stage"]}
            writer.add_series(
                run_id, "overhead_mean_sim_makespan_s", labels,
                [(0.0, row["mean_sim_makespan_s"])],
                help="Mean simulated makespan of one overhead-study stage",
            )
            writer.add_series(
                run_id, "overhead_trace_events", labels,
                [(0.0, float(row["trace_events"]))],
                help="Trace events collected at one overhead-study stage",
            )
        writer.flush()
        return run_id
    finally:
        if own:
            writer.store.close()

