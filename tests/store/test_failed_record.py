"""A record that fails leaves no run behind: the run row
``StoreWriter.begin_run`` inserts is rolled back, so the next writer's
flush cannot commit an orphan run without its data."""

import pytest

from repro.store import (
    PerfStore,
    StoreWriter,
    record_cluster_run,
    record_overhead_study,
)


class _Boom(Exception):
    pass


class _FailingCluster:
    """Fails after the run row is inserted, while reading the monitor."""

    seed = 0
    collector = None

    def fault_events(self):
        return []

    @property
    def monitor(self):
        raise _Boom()


class _FailingStudy:
    def rows(self):
        raise _Boom()


def _fail_in_writer_block(store):
    with StoreWriter(store) as w:
        run = w.begin_run("a")
        w.add_series(run, "m", {}, [(0.0, 1.0)])
        raise _Boom()


def _fail_in_cluster_record(store):
    record_cluster_run(store, _FailingCluster(), name="a")


def _fail_in_overhead_record(store):
    record_overhead_study(store, _FailingStudy(), name="a")


@pytest.mark.parametrize("fail", [
    pytest.param(_fail_in_writer_block, id="writer-block"),
    pytest.param(_fail_in_cluster_record, id="record_cluster_run"),
    pytest.param(_fail_in_overhead_record, id="record_overhead_study"),
])
def test_failed_record_leaves_no_orphan_run(tmp_path, fail):
    db = str(tmp_path / "perf.db")
    store = PerfStore(db)
    try:
        with pytest.raises(_Boom):
            fail(store)
        with StoreWriter(store) as w:
            run = w.begin_run("b")
            w.add_series(run, "m", {}, [(0.0, 2.0)])
    finally:
        store.close()
    with PerfStore(db) as reopened:
        assert [r["name"] for r in reopened.runs()] == ["b"]
        with pytest.raises(KeyError):
            reopened.resolve_run("a")
        assert reopened.metric_values("b", "m") == [2.0]
