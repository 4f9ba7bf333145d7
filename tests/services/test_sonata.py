"""Tests for the Sonata microservice and its filter engine."""

import pytest

from repro.experiments.sonata import run_sonata_experiment
from repro.mercury import HGConfig, SizedBatch, estimate_size
from repro.mercury import serialization
from repro.sim import Simulator
from repro.services.sonata import (
    SonataClient,
    SonataCosts,
    SonataProvider,
    evaluate_filter,
)
from repro.workloads import generate_json_records
from .conftest import make_service_world, run_ult


# ------------------------------------------------------------ filter engine


def test_filter_leaf_operators():
    doc = {"a": 5, "s": "hello"}
    assert evaluate_filter(doc, {"field": "a", "op": "==", "value": 5})
    assert evaluate_filter(doc, {"field": "a", "op": "!=", "value": 6})
    assert evaluate_filter(doc, {"field": "a", "op": "<", "value": 10})
    assert evaluate_filter(doc, {"field": "a", "op": ">=", "value": 5})
    assert evaluate_filter(doc, {"field": "s", "op": "contains", "value": "ell"})
    assert not evaluate_filter(doc, {"field": "a", "op": ">", "value": 5})


def test_filter_missing_field_is_falsy_for_comparisons():
    assert not evaluate_filter({}, {"field": "x", "op": "<", "value": 1})
    assert not evaluate_filter({}, {"field": "x", "op": "contains", "value": "a"})
    # Equality against None works as stated.
    assert evaluate_filter({}, {"field": "x", "op": "==", "value": None})


def test_filter_and_or_composition():
    doc = {"a": 5, "b": 10}
    q = {
        "and": [
            {"field": "a", "op": "==", "value": 5},
            {"or": [
                {"field": "b", "op": "<", "value": 3},
                {"field": "b", "op": ">", "value": 8},
            ]},
        ]
    }
    assert evaluate_filter(doc, q)


def test_filter_unknown_op_rejected():
    with pytest.raises(ValueError):
        evaluate_filter({}, {"field": "a", "op": "~=", "value": 1})


# ------------------------------------------------------------ provider RPCs


@pytest.fixture
def sonata_world():
    world = make_service_world()
    world.provider = SonataProvider(world.server, provider_id=1)
    world.sonata = SonataClient(world.client)
    return world


def test_create_store_fetch_roundtrip(sonata_world):
    w = sonata_world
    records = SizedBatch({"id": i, "v": i * i} for i in range(10))

    def body():
        yield from w.sonata.create_database("svr", 1, "coll")
        ids = yield from w.sonata.store_multi("svr", 1, "coll", records)
        first = yield from w.sonata.filter(
            "svr", 1, "coll", {"field": "id", "op": "==", "value": ids[0]}
        )
        size = yield from w.sonata.size("svr", 1, "coll")
        return ids, first, size

    ids, first, size = run_ult(w, body())
    assert ids == list(range(10))
    assert first == [{"id": 0, "v": 0}]
    assert size == 10


def test_store_multi_batching_preserves_ids(sonata_world):
    w = sonata_world
    records = SizedBatch({"id": i} for i in range(25))

    def body():
        yield from w.sonata.create_database("svr", 1, "c")
        ids = yield from w.sonata.store_multi(
            "svr", 1, "c", records, batch_size=10
        )
        return ids

    ids = run_ult(w, body())
    assert ids == list(range(25))


def test_duplicate_collection_returns_error(sonata_world):
    w = sonata_world

    def body():
        r1 = yield from w.sonata.create_database("svr", 1, "dup")
        r2 = yield from w.sonata.create_database("svr", 1, "dup")
        return r1, r2

    r1, r2 = run_ult(w, body())
    assert r1 == 0
    assert r2 == -1


def test_unknown_collection_fails_loudly(sonata_world):
    w = sonata_world

    def body():
        yield from w.sonata.size("svr", 1, "nope")

    w.client.client_ult(body())
    from repro.margo import RemoteRpcError

    with pytest.raises(RemoteRpcError, match="unknown Sonata collection"):
        w.sim.run(until=1.0)


def test_remote_filter_executes_query(sonata_world):
    w = sonata_world
    records = generate_json_records(60)

    def body():
        yield from w.sonata.create_database("svr", 1, "t")
        yield from w.sonata.store_multi("svr", 1, "t", records, batch_size=20)
        matches = yield from w.sonata.filter(
            "svr", 1, "t", {"field": "tag", "op": "==", "value": "alpha"}
        )
        return matches

    matches = run_ult(w, body(), until=5.0)
    expected = [r for r in records.items if r["tag"] == "alpha"]
    assert matches == expected
    assert 0 < len(matches) < len(records)


def test_large_metadata_overflows_eager_buffer():
    """A 5000-record batch exceeds the eager buffer: the internal RDMA
    path engages (the Figure 7 setup)."""
    world = make_service_world(hg_config=HGConfig(eager_size=4096))
    world.server.hg.pvars_enabled = True
    world.client.hg.pvars_enabled = True
    SonataProvider(world.server, provider_id=1)
    sonata = SonataClient(world.client)
    records = generate_json_records(2000)

    def body():
        yield from sonata.create_database("svr", 1, "big")
        yield from sonata.store_multi("svr", 1, "big", records, batch_size=500)

    run_ult(world, body(), until=5.0)
    sess = world.client.hg.pvar_session_init()
    assert sess.read_by_name("eager_overflow_count") == 4


def test_store_cost_scales_with_records():
    durations = {}
    for n in (50, 500):
        world = make_service_world()
        SonataProvider(world.server, provider_id=1)
        sonata = SonataClient(world.client)
        records = generate_json_records(n)

        def body(recs=records):
            yield from sonata.create_database("svr", 1, "x")
            t0 = world.sim.now
            yield from sonata.store_multi("svr", 1, "x", recs)
            return world.sim.now - t0

        durations[n] = run_ult(world, body(), until=10.0)
    assert durations[500] > 5 * durations[50]


def test_store_batch_size_validation(sonata_world):
    w = sonata_world

    def body():
        yield from w.sonata.create_database("svr", 1, "c")
        yield from w.sonata.store_multi(
            "svr", 1, "c", SizedBatch([{"a": 1}]), batch_size=0
        )

    w.client.client_ult(body())
    with pytest.raises(ValueError, match="batch_size"):
        w.sim.run(until=1.0)


def test_store_multi_charges_each_document_its_encoded_size(sonata_world):
    """The store cost and memory accounting use the sizes the client's
    batch fixed when it was built: exactly each document's encoded size."""
    w = sonata_world
    records = generate_json_records(60)

    def body():
        yield from w.sonata.create_database("svr", 1, "m")
        yield from w.sonata.store_multi("svr", 1, "m", records, batch_size=25)

    run_ult(w, body(), until=5.0)
    stored = w.provider.collections["m"].docs
    assert stored == list(records.items)
    assert w.server.stats.memory_bytes == sum(estimate_size(d) for d in stored)


def test_fig7_tiny_shape_outputs_are_pinned():
    # Recorded before the store handler reused the batch's sizes; the
    # simulated costs must not move by a bit.
    r = run_sonata_experiment(n_records=2_000, batch_size=500)
    assert r.makespan == 0.0019695989000000176
    assert r.deserialization_fraction == 0.26642527062342947


def test_the_fig7_run_sizes_no_record(monkeypatch):
    """The generated record array is sized before the run starts, so
    the number of dicts sized inside ``Simulator.run`` (the RPC inputs
    and outputs) does not grow with the number of records."""
    inside, calls = [0], [0]
    size_dict = serialization._HANDLERS[dict]

    def counting_size_dict(d):
        calls[0] += inside[0] > 0
        return size_dict(d)

    run = Simulator.run

    def counted_run(self, *args, **kwargs):
        inside[0] += 1
        try:
            return run(self, *args, **kwargs)
        finally:
            inside[0] -= 1

    monkeypatch.setitem(serialization._HANDLERS, dict, counting_size_dict)
    monkeypatch.setattr(Simulator, "run", counted_run)
    counts = []
    for n in (1_000, 2_000):
        calls[0] = 0
        run_sonata_experiment(n_records=n, batch_size=n // 4)
        counts.append(calls[0])
    assert counts[0] == counts[1], counts
