"""Archived runs behind the live-object interfaces.

The offline analysis scripts (``repro.symbiosys.analysis``) consume a
live :class:`~repro.symbiosys.collector.SymbiosysCollector`; the
exporters consume a live monitor.  :class:`ArchivedRun` rebuilds the
same duck-typed surface from a store row set, so

    trace_summary(ArchivedRun(store, run))
    system_summary(ArchivedRun(store, run).all_events())
    profile_summary(ArchivedRun(store, run))

run unchanged over a run recorded weeks ago -- one code path for live
objects and archived data, per the ISSUE's redesign goal.
"""

from __future__ import annotations

import json
from typing import Union

from ..symbiosys.monitor import Finding, SchedSlice
from ..symbiosys.profiling import IntervalStats, ProfileKey, ProfileStore
from ..symbiosys.tracing import EventKind, RetryRecord, TraceEvent

__all__ = ["ArchivedCallpathNames", "ArchivedRun"]


class ArchivedCallpathNames:
    """The decoding half of a CallpathRegistry, rebuilt from the stored
    component-name map (same rendering as the live registry)."""

    def __init__(self, names: dict[int, str]):
        self._names = dict(names)
        self.collisions: dict[int, set] = {}

    def name_of(self, component: int) -> str:
        return self._names.get(component, f"<unknown:{component:#06x}>")

    def decode(self, code: int) -> str:
        from ..symbiosys.callpath import components

        parts = components(code)
        if not parts:
            return "<root>"
        return " -> ".join(self.name_of(c) for c in parts)

    def known_names(self) -> list[str]:
        return sorted(set(self._names.values()))


class ArchivedRun:
    """One stored run, presented like a live collector/monitor.

    Duck-typed surface: ``all_events()``, ``all_retries()``,
    ``merged_origin_profile()``, ``merged_target_profile()``,
    ``registry`` (decode-capable), ``findings``, ``sched_slices()``,
    ``total_trace_events``.  The critical-path engine's
    :func:`~repro.symbiosys.critical.analyze_run` accepts it directly.
    """

    def __init__(self, store, run: Union[int, str]):
        self.store = store
        self.run_id = store.resolve_run(run)
        self.info = store.run(self.run_id)
        self._events = None
        self._registry = None

    # -- collector surface --------------------------------------------------

    @property
    def registry(self) -> ArchivedCallpathNames:
        if self._registry is None:
            self._registry = ArchivedCallpathNames(
                self.store.callpath_names(self.run_id)
            )
        return self._registry

    def all_events(self) -> list[TraceEvent]:
        """The run's trace events, losslessly restored (cached)."""
        if self._events is None:
            self._events = [
                TraceEvent(
                    kind=EventKind(r["kind"]),
                    request_id=r["request_id"],
                    order=r["ord"],
                    lamport=r["lamport"],
                    process=r["process"],
                    local_ts=r["local_ts"],
                    true_ts=r["true_ts"],
                    rpc_name=r["rpc_name"],
                    callpath=r["callpath"],
                    span_id=r["span_id"],
                    parent_span_id=r["parent_span_id"],
                    provider_id=r["provider_id"],
                    data=json.loads(r["data"]),
                    pvars=json.loads(r["pvars"]),
                    sysstats=json.loads(r["sysstats"]),
                )
                for r in self.store.trace_event_rows(self.run_id)
            ]
        return self._events

    @property
    def total_trace_events(self) -> int:
        return len(self.all_events())

    def _profile(self, side: str) -> ProfileStore:
        out = ProfileStore()
        for row in self.store.profile_rows(self.run_id, side):
            key = ProfileKey(
                callpath=row["callpath"],
                origin=row["origin"],
                target=row["target"],
            )
            stats = IntervalStats.from_summary(
                count=row["count"],
                total=row["total"],
                minimum=row["min"],
                maximum=row["max"],
                samples=row["reservoir"],
            )
            out._data.setdefault(key, {})[row["interval"]] = stats
        return out

    def merged_origin_profile(self) -> ProfileStore:
        return self._profile("origin")

    def merged_target_profile(self) -> ProfileStore:
        return self._profile("target")

    def all_retries(self) -> list[RetryRecord]:
        """The run's retry/timeout records, restored in the collector's
        merged order."""
        return [
            RetryRecord(
                process=r["process"],
                time=r["time"],
                request_id=r["request_id"],
                rpc_name=r["rpc_name"],
                attempt=r["attempt"],
                delay=r["delay"],
                target=r["target"],
                kind=r["kind"],
            )
            for r in self.store.retry_records(self.run_id)
        ]

    def retries_by_process(self) -> dict[str, list[RetryRecord]]:
        out: dict[str, list[RetryRecord]] = {}
        for rec in self.all_retries():
            out.setdefault(rec.process, []).append(rec)
        return out

    def breakdown_rows(self) -> list[dict]:
        """Stored critical-path decompositions (see
        ``PerfStore.breakdown_rows``)."""
        return self.store.breakdown_rows(self.run_id)

    def merged_resilience(self) -> dict:
        """Run-wide degraded-mode gauges, as recorded at shutdown
        (empty for runs archived without a collector)."""
        return dict(self.info["extra"].get("resilience", {}))

    # -- monitor surface ----------------------------------------------------

    @property
    def findings(self) -> list[Finding]:
        return [
            Finding(
                time=f["time"],
                detector=f["detector"],
                process=f["process"],
                message=f["message"],
                value=f["value"],
                wait_state=f.get("wait_state", ""),
            )
            for f in self.store.findings(self.run_id)
        ]

    def sched_slices(self) -> list[SchedSlice]:
        return [
            SchedSlice(
                process=r["process"],
                es=r["es"],
                ult=r["ult"],
                kind=r["kind"],
                start=r["start"],
                end=r["end"],
                reason=r["reason"],
            )
            for r in self.store.sched_slice_rows(self.run_id)
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ArchivedRun(run_id={self.run_id}, "
            f"name={self.info['name']!r}, kind={self.info['kind']!r})"
        )
