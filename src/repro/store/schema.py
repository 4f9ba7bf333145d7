"""Versioned SQLite schema of the persistent performance store.

One ``.db`` file holds any number of *runs* -- monitored cluster
campaigns and overhead studies -- each decomposed into the columnar
tables below.  The layout follows the SOS/LDMS shape the
``algo74/py-sim-serv`` exemplar queries: narrow append-only tables keyed
by run, with metric samples separated from metric identity so a
time-series scan never touches label strings.

Tables (schema version 4):

``meta``
    Key/value store metadata; carries ``schema_version``.
``runs``
    One row per recorded run: name, kind (``cluster`` / ``overhead``),
    seed, JSON config/tags, free-form ``extra`` JSON (fault-event
    traces land here).
``metrics`` / ``samples``
    Metric identity (name, canonical ``k=v|k=v`` label string, Prometheus
    kind, help) and its ``(t, value)`` time-series rows.
``pvar_samples``
    A *view* over metrics/samples restricted to the ``pvar_``-prefixed
    families -- the Table I/II PVAR snapshots as their own queryable
    relation.
``findings``
    Timestamped anomaly-detector findings, each with ``wait_state``: the
    dominant wait-state category from the critical-path engine.
``retry_records``
    Retry/timeout episodes from the instrumentation's forward hooks
    -- the raw material of the ``retry_backoff`` category.
``breakdowns``
    Per-request critical-path decompositions: integer-picosecond
    category durations, ordered segments, and blame entries as JSON,
    one row per complete root span.
``profiles``
    Flattened callpath-profile interval statistics (count / total /
    min / max plus the bounded distribution reservoir as JSON), one row
    per (side, callpath, origin, target, interval).
"""

from __future__ import annotations

import sqlite3

__all__ = ["SCHEMA_VERSION", "ensure_schema", "schema_version"]

SCHEMA_VERSION = 4

_DDL = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);

CREATE TABLE IF NOT EXISTS runs (
    run_id  INTEGER PRIMARY KEY,
    name    TEXT NOT NULL,
    kind    TEXT NOT NULL DEFAULT 'cluster',
    seed    INTEGER,
    config  TEXT NOT NULL DEFAULT '{}',
    tags    TEXT NOT NULL DEFAULT '{}',
    extra   TEXT NOT NULL DEFAULT '{}',
    created TEXT NOT NULL DEFAULT ''
);
CREATE INDEX IF NOT EXISTS idx_runs_name ON runs(name);

CREATE TABLE IF NOT EXISTS metrics (
    metric_id INTEGER PRIMARY KEY,
    run_id    INTEGER NOT NULL REFERENCES runs(run_id),
    name      TEXT NOT NULL,
    labels    TEXT NOT NULL DEFAULT '',
    kind      TEXT NOT NULL DEFAULT 'gauge',
    help      TEXT NOT NULL DEFAULT '',
    UNIQUE(run_id, name, labels)
);

CREATE TABLE IF NOT EXISTS samples (
    metric_id INTEGER NOT NULL REFERENCES metrics(metric_id),
    t         REAL NOT NULL,
    value     REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_samples_metric ON samples(metric_id, t);

CREATE VIEW IF NOT EXISTS pvar_samples AS
    SELECT m.run_id  AS run_id,
           m.name    AS name,
           m.labels  AS labels,
           s.t       AS t,
           s.value   AS value
    FROM metrics m JOIN samples s ON s.metric_id = m.metric_id
    WHERE m.name LIKE 'pvar\\_%' ESCAPE '\\';

CREATE TABLE IF NOT EXISTS findings (
    run_id   INTEGER NOT NULL REFERENCES runs(run_id),
    seq      INTEGER NOT NULL,
    time     REAL NOT NULL,
    detector TEXT NOT NULL,
    process  TEXT NOT NULL,
    message  TEXT NOT NULL,
    value    REAL NOT NULL DEFAULT 0.0,
    wait_state TEXT NOT NULL DEFAULT ''
);
CREATE INDEX IF NOT EXISTS idx_findings_run ON findings(run_id, seq);

CREATE TABLE IF NOT EXISTS retry_records (
    run_id     INTEGER NOT NULL REFERENCES runs(run_id),
    seq        INTEGER NOT NULL,
    time       REAL NOT NULL,
    process    TEXT NOT NULL,
    request_id TEXT NOT NULL,
    rpc_name   TEXT NOT NULL,
    attempt    INTEGER NOT NULL,
    delay      REAL NOT NULL,
    target     TEXT NOT NULL,
    kind       TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_retry_records_run ON retry_records(run_id, seq);

CREATE TABLE IF NOT EXISTS breakdowns (
    run_id     INTEGER NOT NULL REFERENCES runs(run_id),
    seq        INTEGER NOT NULL,
    request_id TEXT NOT NULL,
    span_id    INTEGER NOT NULL,
    rpc_name   TEXT NOT NULL,
    origin     TEXT NOT NULL,
    target     TEXT NOT NULL,
    start_ps   INTEGER NOT NULL,
    total_ps   INTEGER NOT NULL,
    start_true REAL NOT NULL,
    end_true   REAL NOT NULL,
    n_faults   INTEGER NOT NULL DEFAULT 0,
    categories TEXT NOT NULL DEFAULT '{}',
    segments   TEXT NOT NULL DEFAULT '[]',
    blame      TEXT NOT NULL DEFAULT '[]'
);
CREATE INDEX IF NOT EXISTS idx_breakdowns_run ON breakdowns(run_id, seq);

CREATE TABLE IF NOT EXISTS profiles (
    run_id        INTEGER NOT NULL REFERENCES runs(run_id),
    side          TEXT NOT NULL,
    callpath      INTEGER NOT NULL,
    callpath_name TEXT NOT NULL DEFAULT '',
    origin        TEXT NOT NULL,
    target        TEXT NOT NULL,
    interval      TEXT NOT NULL,
    count         INTEGER NOT NULL,
    total         REAL NOT NULL,
    min           REAL NOT NULL,
    max           REAL NOT NULL,
    reservoir     TEXT NOT NULL DEFAULT '[]'
);
CREATE INDEX IF NOT EXISTS idx_profiles_run ON profiles(run_id, side);
"""


def ensure_schema(conn: sqlite3.Connection) -> None:
    """Create all tables (idempotent) and stamp the version.

    The stored version is read before any DDL runs, and a store written
    by any other schema version is refused untouched: a newer one would
    be misread, version 1 lacks the critical-path tables the analysis
    ops read, version 2 carries the dropped bench tables, and version 3
    the dropped trace-event, scheduler-slice and callpath-name tables.
    """
    found = schema_version(conn)
    if found > SCHEMA_VERSION:
        raise RuntimeError(
            f"store schema version {found} is newer than supported "
            f"version {SCHEMA_VERSION}; upgrade this checkout"
        )
    if 0 < found < SCHEMA_VERSION:
        raise RuntimeError(
            f"store schema version {found} is older than supported "
            f"version {SCHEMA_VERSION}; rebuild the store by recording "
            "the runs again"
        )
    conn.executescript(_DDL)
    if found == 0:
        conn.execute(
            "INSERT INTO meta (key, value) VALUES ('schema_version', ?)",
            (str(SCHEMA_VERSION),),
        )
        conn.commit()


def schema_version(conn: sqlite3.Connection) -> int:
    """The stored ``meta.schema_version``; 0 for a fresh store."""
    has_meta = conn.execute(
        "SELECT 1 FROM sqlite_master WHERE type = 'table' AND name = 'meta'"
    ).fetchone()
    if has_meta is None:
        return 0
    row = conn.execute(
        "SELECT value FROM meta WHERE key = 'schema_version'"
    ).fetchone()
    return int(row[0]) if row is not None else 0
