"""Persistent performance store: SQLite-backed, versioned, queryable.

The collect -> persist -> analyze workflow of the paper, with the
persist step upgraded from one-shot export files to a durable cross-run
store.  One ``.db`` file accumulates monitored cluster runs and
overhead studies; :mod:`repro.analysis` serves analytical queries
(regression, trends, knob importance, detector summaries) over it, and :class:`~repro.store.archive.ArchivedRun` feeds archived runs
back through the same ``repro.symbiosys.analysis`` code paths that
consume live collectors.

Entry points::

    from repro.store import PerfStore, StoreWriter

    with PerfStore("perf.db") as store:
        with StoreWriter(store) as w:
            run = w.begin_run("my-run", seed=7)
            w.add_series(run, "latency_s", {"process": "svr"}, samples)
        print(store.runs())

    # Or let the cluster do it:
    with Cluster(seed=7, monitoring=True, store="perf.db") as cluster:
        ...

See ``docs/analysis-service.md`` for the schema and query protocol.
"""

from __future__ import annotations

import json
import sqlite3
from typing import Optional, Union

from .schema import SCHEMA_VERSION, ensure_schema, schema_version
from .writer import (
    StoreWriter,
    labels_to_text,
    record_cluster_run,
    record_overhead_study,
)

__all__ = [
    "PerfStore",
    "SCHEMA_VERSION",
    "StoreWriter",
    "ensure_schema",
    "labels_to_text",
    "record_cluster_run",
    "record_overhead_study",
    "schema_version",
]


class PerfStore:
    """One performance-store database and its read API.

    Writes go through :class:`StoreWriter`; everything here is a pure
    read (deterministically ordered, so serialized query replies are
    byte-stable for identical stores).
    """

    def __init__(self, path: str = ":memory:"):
        self.path = path
        # check_same_thread=False: the analysis server executes queries
        # from handler threads; AnalysisService serializes access with a
        # lock, so the connection is never used concurrently.
        self.conn = sqlite3.connect(path, check_same_thread=False)
        self.conn.row_factory = sqlite3.Row
        try:
            ensure_schema(self.conn)
        except Exception:
            self.conn.close()
            raise

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        self.conn.close()

    def __enter__(self) -> "PerfStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- runs ---------------------------------------------------------------

    def runs(self, kind: Optional[str] = None) -> list[dict]:
        """All runs (optionally of one kind), oldest first."""
        sql = (
            "SELECT run_id, name, kind, seed, config, tags, created"
            " FROM runs"
        )
        params: tuple = ()
        if kind is not None:
            sql += " WHERE kind = ?"
            params = (kind,)
        sql += " ORDER BY run_id"
        return [
            {
                "run_id": r["run_id"],
                "name": r["name"],
                "kind": r["kind"],
                "seed": r["seed"],
                "config": json.loads(r["config"]),
                "tags": json.loads(r["tags"]),
                "created": r["created"],
            }
            for r in self.conn.execute(sql, params)
        ]

    def run(self, ref: Union[int, str]) -> dict:
        """One run by id, or by name (the most recent of that name)."""
        run_id = self.resolve_run(ref)
        row = self.conn.execute(
            "SELECT run_id, name, kind, seed, config, tags, extra, created"
            " FROM runs WHERE run_id = ?",
            (run_id,),
        ).fetchone()
        if row is None:  # pragma: no cover - resolve_run already checks
            raise KeyError(f"no run {ref!r}")
        return {
            "run_id": row["run_id"],
            "name": row["name"],
            "kind": row["kind"],
            "seed": row["seed"],
            "config": json.loads(row["config"]),
            "tags": json.loads(row["tags"]),
            "extra": json.loads(row["extra"]),
            "created": row["created"],
        }

    def resolve_run(self, ref: Union[int, str]) -> int:
        """Map a run reference (id, numeric string, or name) to its id;
        names resolve to the most recent matching run."""
        if isinstance(ref, int):
            candidate = ref
        elif isinstance(ref, str) and ref.isdigit():
            candidate = int(ref)
        else:
            row = self.conn.execute(
                "SELECT MAX(run_id) FROM runs WHERE name = ?", (ref,)
            ).fetchone()
            if row is None or row[0] is None:
                raise KeyError(f"no run named {ref!r}")
            return row[0]
        row = self.conn.execute(
            "SELECT 1 FROM runs WHERE run_id = ?", (candidate,)
        ).fetchone()
        if row is None:
            raise KeyError(f"no run with id {candidate}")
        return candidate

    # -- metrics ------------------------------------------------------------

    def metric_names(self, run: Union[int, str]) -> list[str]:
        run_id = self.resolve_run(run)
        return [
            r[0]
            for r in self.conn.execute(
                "SELECT DISTINCT name FROM metrics WHERE run_id = ?"
                " ORDER BY name",
                (run_id,),
            )
        ]

    def series_keys(self, run: Union[int, str]) -> list[tuple[str, str]]:
        """Sorted ``(name, labels)`` pairs of every series in a run."""
        run_id = self.resolve_run(run)
        return [
            (r[0], r[1])
            for r in self.conn.execute(
                "SELECT name, labels FROM metrics WHERE run_id = ?"
                " ORDER BY name, labels",
                (run_id,),
            )
        ]

    def samples(
        self,
        run: Union[int, str],
        name: str,
        labels: Optional[Union[str, dict]] = None,
    ) -> list[tuple[float, float]]:
        """Chronological ``(t, value)`` samples of one series; with
        ``labels=None``, samples of every series of that name merged in
        (labels, t) order."""
        run_id = self.resolve_run(run)
        sql = (
            "SELECT s.t, s.value FROM metrics m"
            " JOIN samples s ON s.metric_id = m.metric_id"
            " WHERE m.run_id = ? AND m.name = ?"
        )
        params: list = [run_id, name]
        if labels is not None:
            sql += " AND m.labels = ?"
            params.append(labels_to_text(labels)
                          if isinstance(labels, dict) else labels)
        sql += " ORDER BY m.labels, s.rowid"
        return [(r[0], r[1]) for r in self.conn.execute(sql, params)]

    def metric_values(self, run: Union[int, str], name: str) -> list[float]:
        """Just the values of :meth:`samples` (analysis convenience)."""
        return [v for _, v in self.samples(run, name)]

    def pvar_samples(
        self, run: Union[int, str], name: Optional[str] = None
    ) -> list[tuple[str, str, float, float]]:
        """Rows of the ``pvar_samples`` view: ``(name, labels, t,
        value)`` for the PVAR-derived series only."""
        run_id = self.resolve_run(run)
        sql = (
            "SELECT name, labels, t, value FROM pvar_samples"
            " WHERE run_id = ?"
        )
        params: list = [run_id]
        if name is not None:
            sql += " AND name = ?"
            params.append(name)
        sql += " ORDER BY name, labels, t"
        return [tuple(r) for r in self.conn.execute(sql, params)]

    # -- traces, slices, findings, profiles ---------------------------------

    def trace_event_rows(self, run: Union[int, str]) -> list[sqlite3.Row]:
        run_id = self.resolve_run(run)
        return self.conn.execute(
            "SELECT * FROM trace_events WHERE run_id = ? ORDER BY seq",
            (run_id,),
        ).fetchall()

    def sched_slice_rows(self, run: Union[int, str]) -> list[sqlite3.Row]:
        run_id = self.resolve_run(run)
        return self.conn.execute(
            "SELECT * FROM sched_slices WHERE run_id = ? ORDER BY seq",
            (run_id,),
        ).fetchall()

    def findings(self, run: Union[int, str]) -> list[dict]:
        run_id = self.resolve_run(run)
        return [
            {
                "time": r["time"],
                "detector": r["detector"],
                "process": r["process"],
                "message": r["message"],
                "value": r["value"],
                "wait_state": r["wait_state"],
            }
            for r in self.conn.execute(
                "SELECT * FROM findings WHERE run_id = ? ORDER BY seq",
                (run_id,),
            )
        ]

    def retry_records(self, run: Union[int, str]) -> list[dict]:
        """Retry/timeout episodes of one run, in recording order."""
        run_id = self.resolve_run(run)
        return [
            {
                "time": r["time"],
                "process": r["process"],
                "request_id": r["request_id"],
                "rpc_name": r["rpc_name"],
                "attempt": r["attempt"],
                "delay": r["delay"],
                "target": r["target"],
                "kind": r["kind"],
            }
            for r in self.conn.execute(
                "SELECT * FROM retry_records WHERE run_id = ? ORDER BY seq",
                (run_id,),
            )
        ]

    def breakdown_rows(self, run: Union[int, str]) -> list[dict]:
        """Stored per-request critical-path decompositions (JSON fields
        decoded), in recording order."""
        run_id = self.resolve_run(run)
        return [
            {
                "request_id": r["request_id"],
                "span_id": r["span_id"],
                "rpc_name": r["rpc_name"],
                "origin": r["origin"],
                "target": r["target"],
                "start_ps": r["start_ps"],
                "total_ps": r["total_ps"],
                "start_true": r["start_true"],
                "end_true": r["end_true"],
                "n_faults": r["n_faults"],
                "categories": json.loads(r["categories"]),
                "segments": json.loads(r["segments"]),
                "blame": json.loads(r["blame"]),
            }
            for r in self.conn.execute(
                "SELECT * FROM breakdowns WHERE run_id = ? ORDER BY seq",
                (run_id,),
            )
        ]

    def profile_rows(
        self, run: Union[int, str], side: str = "origin"
    ) -> list[dict]:
        run_id = self.resolve_run(run)
        return [
            {
                "callpath": r["callpath"],
                "callpath_name": r["callpath_name"],
                "origin": r["origin"],
                "target": r["target"],
                "interval": r["interval"],
                "count": r["count"],
                "total": r["total"],
                "min": r["min"],
                "max": r["max"],
                "reservoir": json.loads(r["reservoir"]),
            }
            for r in self.conn.execute(
                "SELECT * FROM profiles WHERE run_id = ? AND side = ?"
                " ORDER BY rowid",
                (run_id, side),
            )
        ]

    def callpath_names(self, run: Union[int, str]) -> dict[int, str]:
        run_id = self.resolve_run(run)
        return {
            r[0]: r[1]
            for r in self.conn.execute(
                "SELECT component, name FROM callpath_names"
                " WHERE run_id = ? ORDER BY component",
                (run_id,),
            )
        }
