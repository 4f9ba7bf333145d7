"""Critical-path queries over stored runs: byte-determinism of the
``breakdown``/``critical_path``/``blame`` replies, the stored-vs-live
equivalence, and refusal of stores of other schema versions."""

import sqlite3

import pytest

from repro.analysis import AnalysisService, Query, encode_reply
from repro.store import PerfStore
from repro.symbiosys.critical import WAIT_CATEGORIES, analyze_collector

from ..conftest import make_echo_cluster, run_client_calls
from .conftest import record_echo_run

_OPS = (
    ("breakdown", {"run": "1"}),
    ("critical_path", {"run": "1", "top": 5}),
    ("blame", {"run": "1"}),
)


def query_bytes(db_path, ops=_OPS):
    service = AnalysisService(str(db_path))
    try:
        out = {}
        for op, params in ops:
            reply = service.execute(Query(op, dict(params)))
            assert reply.ok, f"{op}: {reply.error}"
            out[op] = encode_reply(reply)
        return out
    finally:
        service.store.close()


class TestByteDeterminism:
    def test_replies_identical_across_store_rebuilds(self, tmp_path):
        """The golden acceptance check: rebuild the same-seed run into
        two fresh stores; every critical-path reply is byte-identical."""
        replies = []
        for trial in range(2):
            db = tmp_path / f"perf{trial}.db"
            record_echo_run(db, seed=3, n_calls=10)
            replies.append(query_bytes(db))
        for op in replies[0]:
            assert replies[0][op] == replies[1][op], \
                f"{op} reply not byte-identical across rebuilds"

    def test_reply_stable_across_repeat_queries(self, tmp_path):
        db = tmp_path / "perf.db"
        record_echo_run(db, seed=3, n_calls=10)
        assert query_bytes(db) == query_bytes(db)


class TestStoredVsRecomputed:
    def test_archived_run_feeds_the_engine(self, echo_store):
        """Every stored breakdown field equals a fresh engine pass over
        the live run."""
        store, world = echo_store
        report = analyze_collector(world.cluster.collector,
                                   world.cluster.monitor)
        report.check_invariant()
        rows = store.breakdown_rows(1)
        assert len(rows) == len(report.breakdowns) > 0
        for row, bd in zip(rows, report.breakdowns):
            assert row == {
                "request_id": bd.request_id,
                "span_id": bd.span_id,
                "rpc_name": bd.rpc_name,
                "origin": bd.origin,
                "target": bd.target,
                "start_ps": bd.start_ps,
                "total_ps": bd.total_ps,
                "start_true": bd.start_true,
                "end_true": bd.end_true,
                "n_faults": bd.n_faults,
                "categories": dict(bd.categories),
                "segments": [list(seg) for seg in bd.segments],
                "blame": [[b.category, b.occupant, b.overlap_ps]
                          for b in bd.blame],
            }

    def test_profiles_without_breakdowns_are_refused(self, tmp_path):
        db = tmp_path / "perf.db"
        record_echo_run(db, seed=3, n_calls=10)
        conn = sqlite3.connect(str(db))
        conn.execute("DELETE FROM breakdowns")
        conn.commit()
        conn.close()
        service = AnalysisService(str(db))
        try:
            for op, params in _OPS:
                reply = service.execute(Query(op, dict(params)))
                assert not reply.ok
                assert "'echo-seed3'" in reply.error
                assert "no stored breakdowns" in reply.error
        finally:
            service.store.close()


class TestSchemaV2:
    def test_findings_carry_wait_state(self, tmp_path):
        # Enough concurrent calls on one handler ES -- sampled fast
        # enough to see them queued -- to trip the queue-depth detector.
        from repro.symbiosys import Stage
        from repro.symbiosys.monitor import MonitorConfig

        db = tmp_path / "busy.db"
        world = make_echo_cluster(
            seed=3, stage=Stage.FULL,
            monitoring=MonitorConfig(interval=25e-6),
            store=str(db), run_name="busy",
        )
        results = run_client_calls(
            world, [("echo", {"i": i}) for i in range(32)]
        )
        assert world.sim.run_until(lambda: len(results) == 32, limit=5.0)
        world.cluster.shutdown()
        store = PerfStore(str(db))
        try:
            findings = store.findings(1)
            assert findings, \
                "echo run under contention must produce findings"
            assert all(
                f["wait_state"] in WAIT_CATEGORIES for f in findings
            )
        finally:
            store.close()

    def test_retry_records_round_trip(self, echo_store):
        store, world = echo_store
        live = world.cluster.collector.all_retries()
        assert store.retry_records(1) == [
            {
                "time": r.time,
                "process": r.process,
                "request_id": r.request_id,
                "rpc_name": r.rpc_name,
                "attempt": r.attempt,
                "delay": r.delay,
                "target": r.target,
                "kind": r.kind,
            }
            for r in live
        ]

    # Version 1 lacks the critical-path tables; version 2 still carries
    # the bench tables version 3 dropped; version 3 still carries the
    # trace-event, slice and callpath-name tables version 4 dropped.
    @pytest.mark.parametrize("version,extra", [
        pytest.param("1", "", id="v1"),
        pytest.param("2", """
            CREATE TABLE bench_results (run_id INTEGER NOT NULL,
                suite TEXT NOT NULL, benchmark TEXT NOT NULL,
                median_s REAL NOT NULL);
            INSERT INTO bench_results VALUES (1, 'kernel', 'spawn', 0.01);
            CREATE TABLE bench_history (suite TEXT NOT NULL,
                machine TEXT NOT NULL, git_rev TEXT NOT NULL,
                date TEXT NOT NULL, UNIQUE(suite, machine, git_rev));
            INSERT INTO bench_history VALUES ('kernel', 'm', 'r', 'd');
        """, id="v2"),
        pytest.param("3", """
            CREATE TABLE trace_events (run_id INTEGER NOT NULL,
                seq INTEGER NOT NULL, kind TEXT NOT NULL,
                request_id TEXT NOT NULL, data TEXT NOT NULL DEFAULT '{}');
            INSERT INTO trace_events VALUES (1, 0, 'origin_forward', 'r',
                '{}');
            CREATE TABLE sched_slices (run_id INTEGER NOT NULL,
                seq INTEGER NOT NULL, process TEXT NOT NULL,
                start REAL NOT NULL, end REAL NOT NULL);
            INSERT INTO sched_slices VALUES (1, 0, 'p', 0.0, 1.0);
            CREATE TABLE callpath_names (run_id INTEGER NOT NULL,
                component INTEGER NOT NULL, name TEXT NOT NULL);
            INSERT INTO callpath_names VALUES (1, 1, 'echo');
        """, id="v3"),
    ])
    def test_older_store_is_refused_untouched(self, tmp_path, version,
                                              extra):
        db = tmp_path / "old.db"
        conn = sqlite3.connect(str(db))
        conn.execute(
            "CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL)"
        )
        conn.execute(
            "INSERT INTO meta VALUES ('schema_version', ?)", (version,)
        )
        conn.executescript("""
            CREATE TABLE runs (run_id INTEGER PRIMARY KEY,
                name TEXT NOT NULL, kind TEXT NOT NULL DEFAULT 'cluster',
                seed INTEGER, config TEXT NOT NULL DEFAULT '{}',
                tags TEXT NOT NULL DEFAULT '{}',
                extra TEXT NOT NULL DEFAULT '{}',
                created TEXT NOT NULL DEFAULT '');
            INSERT INTO runs (name) VALUES ('old');
            CREATE TABLE findings (run_id INTEGER NOT NULL,
                seq INTEGER NOT NULL, time REAL NOT NULL,
                detector TEXT NOT NULL, process TEXT NOT NULL,
                message TEXT NOT NULL, value REAL NOT NULL DEFAULT 0.0);
            INSERT INTO findings VALUES (1, 0, 0.5, 'd', 'p', 'm', 1.0);
        """ + extra)
        conn.commit()
        conn.close()
        before = db.read_bytes()
        with pytest.raises(RuntimeError, match="rebuild the store"):
            PerfStore(str(db))
        assert db.read_bytes() == before

    def test_newer_schema_refuses_to_open(self, tmp_path):
        db = tmp_path / "future.db"
        store = PerfStore(str(db))
        store.conn.execute(
            "UPDATE meta SET value = '99' WHERE key = 'schema_version'"
        )
        store.conn.commit()
        store.close()
        before = db.read_bytes()
        with pytest.raises(RuntimeError, match="newer than supported"):
            PerfStore(str(db))
        assert db.read_bytes() == before
