"""Schema round-trip: everything a run records comes back intact."""

import sqlite3

import pytest

from repro.store import PerfStore
from repro.store.schema import SCHEMA_VERSION, ensure_schema, schema_version
from repro.symbiosys.critical import analyze_collector, annotate_findings
from repro.symbiosys.export import series_to_csv

from .conftest import record_echo_run


class TestSchema:
    def test_version_stamped(self, echo_store):
        store, _ = echo_store
        assert schema_version(store.conn) == SCHEMA_VERSION

    def test_ensure_schema_idempotent(self, echo_store):
        store, _ = echo_store
        ensure_schema(store.conn)  # must not raise or duplicate
        assert schema_version(store.conn) == SCHEMA_VERSION

    def test_newer_store_rejected(self, tmp_path):
        db = str(tmp_path / "future.db")
        conn = sqlite3.connect(db)
        ensure_schema(conn)
        conn.execute(
            "UPDATE meta SET value = ? WHERE key = 'schema_version'",
            (str(SCHEMA_VERSION + 1),),
        )
        conn.commit()
        conn.close()
        with pytest.raises(RuntimeError, match="newer"):
            PerfStore(db)


class TestRunRow:
    def test_identity(self, echo_store):
        store, world = echo_store
        run = store.run(world.cluster.run_id)
        assert run["name"] == "echo-seed0"
        assert run["kind"] == "cluster"
        assert run["seed"] == 0
        assert run["tags"] == {"workload": "echo", "n_calls": "8"}

    def test_resolve_by_name_and_id(self, echo_store):
        store, world = echo_store
        rid = world.cluster.run_id
        assert store.resolve_run(rid) == rid
        assert store.resolve_run(str(rid)) == rid
        assert store.resolve_run("echo-seed0") == rid
        with pytest.raises(KeyError):
            store.resolve_run("no-such-run")


class TestSeriesRoundTrip:
    def test_every_live_series_stored(self, echo_store):
        store, world = echo_store
        monitor = world.cluster.monitor
        rid = world.cluster.run_id
        live = {
            (ts.name, "|".join(f"{k}={v}" for k, v in ts.labels)):
                list(ts.samples())
            for ts in monitor.store.all_series()
        }
        stored = {
            (name, labels): store.samples(rid, name, labels)
            for name, labels in store.series_keys(rid)
        }
        assert stored == live

    def test_sorted_export_order(self, echo_store):
        store, world = echo_store
        rid = world.cluster.run_id
        keys = store.series_keys(rid)
        assert keys == sorted(keys)
        # Same order as the CSV exporter walks.
        csv_keys = []
        for line in series_to_csv(world.cluster.monitor.store).splitlines()[1:]:
            name, labels = line.split(",")[:2]
            if (name, labels) not in csv_keys:
                csv_keys.append((name, labels))
        assert [list(k) for k in keys] == [list(k) for k in csv_keys]

    def test_pvar_view(self, echo_store):
        store, world = echo_store
        rid = world.cluster.run_id
        pvars = store.conn.execute(
            "SELECT name, labels, t, value FROM pvar_samples WHERE run_id = ?",
            (rid,),
        ).fetchall()
        assert pvars, "monitored run must expose pvar_* series"
        assert all(name.startswith("pvar_") for name, *_ in pvars)


class TestTraceAndProfileRoundTrip:
    def test_profiles_match_live_summaries(self, echo_store):
        """Each stored profile row carries the live merged profile's
        count, total, min, max and reservoir for its key and interval,
        on both sides."""
        store, world = echo_store
        collector = world.cluster.collector
        for side, live in (
            ("origin", collector.merged_origin_profile()),
            ("target", collector.merged_target_profile()),
        ):
            expected = {
                (key.callpath, key.origin, key.target, interval):
                    (s.count, s.total, s.minimum, s.maximum, s.samples())
                for key in live.keys()
                for interval, s in live.intervals_for(key).items()
            }
            rows = store.profile_rows(world.cluster.run_id, side)
            stored = {
                (r["callpath"], r["origin"], r["target"], r["interval"]):
                    (r["count"], r["total"], r["min"], r["max"],
                     r["reservoir"])
                for r in rows
            }
            assert len(rows) == len(stored) > 0
            assert stored == expected

    def test_findings_and_slices(self, echo_store):
        """The stored findings are the live ones with their wait state
        filled in."""
        store, world = echo_store
        cluster = world.cluster
        live = annotate_findings(
            cluster.monitor.findings,
            analyze_collector(cluster.collector, cluster.monitor),
        )
        assert store.findings(cluster.run_id) == [
            {
                "time": f.time,
                "detector": f.detector,
                "process": f.process,
                "message": f.message,
                "value": f.value,
                "wait_state": f.wait_state,
            }
            for f in live
        ]


class TestMultiRun:
    def test_two_seeds_two_runs(self, tmp_path):
        db = tmp_path / "multi.db"
        record_echo_run(db, seed=0)
        record_echo_run(db, seed=1)
        store = PerfStore(str(db))
        try:
            runs = store.runs(kind="cluster")
            assert [r["name"] for r in runs] == ["echo-seed0", "echo-seed1"]
            assert [r["seed"] for r in runs] == [0, 1]
        finally:
            store.close()
