"""Batched deterministic writer for the performance store.

All appends accumulate in per-table row buffers and land in one
``executemany`` batch per table at :meth:`StoreWriter.flush` -- a run's
worth of telemetry is one transaction, not ten thousand.  Row order is
deterministic: series are written in sorted ``(name, labels)`` order
(the exporters' order), findings/retries/breakdowns in recording
order, so two same-seed runs produce row-for-row identical stores.

The free functions at the bottom are the high-level sinks the rest of
the stack calls: :func:`record_cluster_run` (what ``Cluster(store=...)``
invokes at shutdown) and :func:`record_overhead_study`.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Iterable, Optional, Union

if TYPE_CHECKING:  # pragma: no cover
    from ..symbiosys.metrics import SeriesStore
    from ..symbiosys.monitor import Finding
    from ..symbiosys.profiling import ProfileStore
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

    Use as a context manager (flushes on clean exit, discards everything
    pending on an exception) or call :meth:`flush` explicitly.  One
    writer may record several runs.
    """

    def __init__(self, store: "PerfStore"):
        self.store = store
        self._metrics: list[tuple] = []  # (run, name, labels, kind, help)
        self._samples: list[tuple] = []  # (run, name, labels, t, value)
        self._findings: list[tuple] = []
        self._retries: list[tuple] = []
        self._breakdowns: list[tuple] = []
        self._profiles: list[tuple] = []

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
        """Allocate a run id (immediately, so references work).  The run
        row is inserted now but committed only by :meth:`flush`."""
        cur = self.store.conn.execute(
            "INSERT INTO runs (name, kind, seed, config, tags, extra, created)"
            " VALUES (?, ?, ?, ?, ?, ?, ?)",
            (
                name, kind, seed,
                _dumps(config or {}), _dumps(tags or {}), _dumps(extra or {}),
                created,
            ),
        )
        return cur.lastrowid

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

    def record_series_store(self, run_id: int, store: "SeriesStore") -> None:
        """Every time-series of a monitor's store, in sorted export
        order, with its family's kind/help (a series outside any family
        is a help-less gauge)."""
        for ts in store.all_series():
            kind, help = store.family_info(ts.name) or ("gauge", "")
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
             f.value, f.wait_state)
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

    # -- profiles -----------------------------------------------------------

    def record_profile(
        self,
        run_id: int,
        side: str,
        store: "ProfileStore",
        registry,
    ) -> None:
        """Flatten one callpath-profile store (count/total/min/max plus
        the distribution reservoir) in sorted key order."""
        for key in sorted(
            store.keys(), key=lambda k: (k.callpath, k.origin, k.target)
        ):
            name = registry.decode(key.callpath)
            for interval, stats in sorted(store.intervals_for(key).items()):
                self._profiles.append(
                    (
                        run_id, side, key.callpath, name, key.origin,
                        key.target, interval, stats.count, stats.total,
                        stats.minimum, stats.maximum,
                        _dumps(stats.samples()),
                    )
                )

    def record_collector(self, run_id: int, collector) -> None:
        """What the queries read of a SYMBIOSYS collector: its retry
        records and both profile sides."""
        self.record_retries(run_id, collector.all_retries())
        self.record_profile(
            run_id, "origin", collector.merged_origin_profile(),
            collector.registry,
        )
        self.record_profile(
            run_id, "target", collector.merged_target_profile(),
            collector.registry,
        )

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
        self._clear()
        conn.commit()

    def _discard(self) -> None:
        """Drop every buffered row and roll back the run rows
        :meth:`begin_run` inserted, so a failed record leaves no run
        for the next writer's :meth:`flush` to commit."""
        self._clear()
        self.store.conn.rollback()

    def _clear(self) -> None:
        for buf in (
            self._metrics, self._samples, self._findings, self._retries,
            self._breakdowns, self._profiles,
        ):
            buf.clear()

    def __enter__(self) -> "StoreWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            self.flush()
        else:
            self._discard()
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
    retries/profiles/breakdowns (when instrumentation was on).  When
    both are present, the critical-path engine runs once here and its
    per-request breakdowns land in the ``breakdowns`` table; detector
    findings are stored with their dominant wait state filled in.  On
    failure nothing of the run is left behind."""
    writer, own = _open_writer(store)
    try:
        with writer:
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
                writer.record_series_store(run_id, monitor.store)
                writer.record_findings(run_id, findings)
            if cluster.collector is not None:
                writer.record_collector(run_id, cluster.collector)
                writer.record_breakdowns(run_id, report)
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
        with writer:
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
            return run_id
    finally:
        if own:
            writer.store.close()

