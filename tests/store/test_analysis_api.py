"""The analysis service: determinism, the planted-slowdown regression
gate, and the query/serve protocol."""

import json

import pytest

from repro.analysis import (
    AnalysisService,
    Query,
    decode_reply,
    encode_query,
    encode_reply,
)
from repro.store import PerfStore, StoreWriter

from .conftest import record_echo_run


def make_ab_store(path, *, slowdown=0.0):
    """Two synthetic runs, base and head; head's latency shifted by
    ``slowdown`` seconds on every sample."""
    store = PerfStore(str(path))
    with StoreWriter(store) as w:
        for name, shift in (("base", 0.0), ("head", slowdown)):
            run = w.begin_run(name, seed=0, tags={"arm": name})
            w.add_series(
                run, "latency_s", {"process": "svr"},
                [(i * 0.1, 1.0 + 0.01 * (i % 7) + shift) for i in range(64)],
            )
            w.add_series(
                run, "queue_depth", {"process": "svr"},
                [(i * 0.1, 4.0 + (i % 3)) for i in range(64)],
            )
    return store


class TestRegression:
    def test_planted_slowdown_is_flagged(self, tmp_path):
        store = make_ab_store(tmp_path / "ab.db", slowdown=0.3)
        try:
            reply = AnalysisService(store).execute(
                Query("regression", {"base": "base", "head": "head"})
            )
        finally:
            store.close()
        assert reply.ok
        rows = {r["metric"]: r for r in reply.result["rows"]}
        lat = rows["latency_s"]
        assert lat["flagged"] is True
        assert lat["ci_lo"] > 0.2, "CI must exclude zero around the +0.3 shift"
        assert lat["ci_hi"] > lat["ci_lo"]
        assert 0.25 < lat["delta"] < 0.35
        # The untouched metric must NOT be flagged.
        assert rows["queue_depth"]["flagged"] is False
        assert reply.result["flagged"] == 1

    def test_no_slowdown_not_flagged(self, tmp_path):
        store = make_ab_store(tmp_path / "ab.db", slowdown=0.0)
        try:
            reply = AnalysisService(store).execute(
                Query("regression", {"base": "base", "head": "head"})
            )
        finally:
            store.close()
        assert reply.ok
        assert reply.result["flagged"] == 0


class TestDeterminism:
    def test_reply_bytes_stable_per_store(self, echo_store):
        store, world = echo_store
        service = AnalysisService(store)
        q = Query("trend", {"metric": "abt_busy_fraction", "stat": "p95"})
        first = encode_reply(service.execute(q))
        second = encode_reply(service.execute(q))
        assert first == second

    def test_same_seed_rebuild_gives_identical_reply(self, tmp_path):
        replies = []
        for sub in ("a", "b"):
            db = tmp_path / sub / "perf.db"
            db.parent.mkdir()
            record_echo_run(db, seed=3, name="det")
            store = PerfStore(str(db))
            try:
                for op, params in (
                    ("runs", {}),
                    ("detectors", {}),
                    ("trend", {"metric": "abt_busy_fraction"}),
                    ("profile", {"run": "det"}),
                ):
                    replies.append(
                        encode_reply(
                            AnalysisService(store).execute(Query(op, params))
                        )
                    )
            finally:
                store.close()
        half = len(replies) // 2
        assert replies[:half] == replies[half:]

    def test_reply_is_canonical_json(self, echo_store):
        store, _ = echo_store
        line = AnalysisService(store).handle_line(
            encode_query(Query("runs", {}))
        )
        parsed = json.loads(line)
        assert line == json.dumps(
            parsed, sort_keys=True, separators=(",", ":")
        )


class TestErrors:
    def test_unknown_op_is_error_reply(self, echo_store):
        store, _ = echo_store
        reply = AnalysisService(store).execute(Query("nonsense", {}))
        assert not reply.ok
        assert "unknown op" in reply.error

    def test_malformed_line_is_error_reply(self, echo_store):
        store, _ = echo_store
        reply = decode_reply(AnalysisService(store).handle_line("{not json"))
        assert not reply.ok

    def test_missing_run_is_error_reply(self, echo_store):
        store, _ = echo_store
        reply = AnalysisService(store).execute(
            Query("regression", {"base": "ghost", "head": "ghost"})
        )
        assert not reply.ok


class TestOtherOps:
    def test_detectors_summarizes_findings(self, echo_store):
        store, world = echo_store
        reply = AnalysisService(store).execute(Query("detectors", {}))
        assert reply.ok
        (summary,) = reply.result["runs"]
        assert summary["total"] == len(world.cluster.monitor.findings)

    def test_knobs_ranks_varying_tag(self, tmp_path):
        store = PerfStore(str(tmp_path / "knobs.db"))
        with StoreWriter(store) as w:
            for scale, base in ((2, 1.0), (4, 2.0), (8, 4.0)):
                run = w.begin_run(
                    f"s{scale}", seed=0, tags={"scale": str(scale)},
                    config={"constant_knob": "x"},
                )
                w.add_series(
                    run, "latency_s", {},
                    [(i * 0.1, base + 0.01 * i) for i in range(16)],
                )
        try:
            reply = AnalysisService(store).execute(
                Query("knobs", {"metric": "latency_s"})
            )
        finally:
            store.close()
        assert reply.ok
        rows = reply.result["rows"]
        assert rows and rows[0]["knob"] == "scale"
        # A knob that never varies must not appear at all.
        assert all(r["knob"] != "constant_knob" for r in rows)

    def test_trend_by_tag(self, echo_store):
        store, _ = echo_store
        reply = AnalysisService(store).execute(
            Query(
                "trend",
                {"metric": "abt_busy_fraction", "by": "tag:workload"},
            )
        )
        assert reply.ok
        assert [p["x"] for p in reply.result["points"]] == ["echo"]


class TestServer:
    @staticmethod
    def _start(tmp_path):
        import threading

        from repro.analysis import serve

        db = tmp_path / "perf.db"
        record_echo_run(db)
        bound = {}
        ready_evt = threading.Event()

        def ready(host, port):
            bound["addr"] = (host, port)
            ready_evt.set()

        thread = threading.Thread(
            target=serve,
            args=(str(db),),
            kwargs={"port": 0, "ready": ready},
            daemon=True,
        )
        thread.start()
        assert ready_evt.wait(10.0), "server did not come up"
        return bound["addr"]

    def test_serve_and_remote_query(self, tmp_path):
        from repro.analysis import remote_query

        host, port = self._start(tmp_path)
        reply = remote_query(host, port, Query("runs", {}))
        assert reply.ok
        assert reply.result["count"] == 1

    def test_oversized_line_gets_one_error_reply(self, tmp_path):
        import socket

        from repro.analysis import remote_query
        from repro.analysis.protocol import decode_reply
        from repro.analysis.service import MAX_LINE_BYTES

        host, port = self._start(tmp_path)
        with socket.create_connection((host, port), timeout=10.0) as sock:
            # No newline anywhere: the server must stop reading at the cap.
            sock.sendall(b"x" * (MAX_LINE_BYTES + 1))
            buf = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break  # the server closed the connection
                buf += chunk
        lines = buf.decode().splitlines()
        assert len(lines) == 1
        reply = decode_reply(lines[0])
        assert not reply.ok
        assert str(MAX_LINE_BYTES) in reply.error

        # The server is still healthy for a fresh connection.
        reply = remote_query(host, port, Query("runs", {}))
        assert reply.ok
        assert reply.result["count"] == 1

    def test_invalid_utf8_line_gets_error_and_connection_survives(
        self, tmp_path
    ):
        import socket

        from repro.analysis.protocol import decode_reply, encode_query

        host, port = self._start(tmp_path)
        with socket.create_connection((host, port), timeout=10.0) as sock:
            replies = sock.makefile("rb")
            sock.sendall(b'{"op": "\xff\xfe runs"}\n')
            bad = decode_reply(replies.readline().decode())
            assert not bad.ok
            # The same connection still answers a valid query.
            sock.sendall(encode_query(Query("runs", {})).encode() + b"\n")
            good = decode_reply(replies.readline().decode())
            assert good.ok
            assert good.result["count"] == 1
