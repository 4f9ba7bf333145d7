"""Tests for the SDSKV microservice and its backends."""

import pytest

from repro.argobots import AbtRuntime
from repro.mercury import SizedBatch, estimate_size
from repro.services.sdskv import (
    BACKENDS,
    MapDatabase,
    SdskvClient,
    SdskvProvider,
    make_database,
)
from repro.sim import Simulator
from .conftest import make_service_world, run_ult


# ------------------------------------------------------------ backend units


def make_db(backend="map", n_es=4):
    sim = Simulator()
    rt = AbtRuntime(sim, ctx_switch_cost=0.0)
    pool = rt.create_pool()
    for _ in range(n_es):
        rt.create_xstream(pool)
    db = make_database(backend, rt)
    return sim, rt, pool, db


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_backend_put_get_roundtrip(backend):
    sim, rt, pool, db = make_db(backend)
    out = {}

    def body():
        yield from db.put("k1", {"v": 1})
        out["v"] = yield from db.get("k1")
        out["missing"] = yield from db.get("nope")

    rt.spawn(body(), pool)
    sim.run(until=1.0)
    assert out["v"] == {"v": 1}
    assert out["missing"] is None
    assert len(db) == 1


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_backend_list_keyvals_prefix(backend):
    sim, rt, pool, db = make_db(backend)
    out = {}

    def body():
        yield from db.put_many(SizedBatch((f"a:{i}", i) for i in range(5)))
        yield from db.put_many(SizedBatch((f"b:{i}", i) for i in range(3)))
        out["a"] = yield from db.list_keyvals("a:")
        out["limited"] = yield from db.list_keyvals("a:", max_items=2)
        out["all"] = yield from db.list_keyvals("")

    rt.spawn(body(), pool)
    sim.run(until=1.0)
    assert [k for k, _ in out["a"]] == [f"a:{i}" for i in range(5)]
    assert len(out["limited"]) == 2
    assert len(out["all"]) == 8


def test_map_backend_serializes_inserts():
    """Concurrent put_many batches on one map database strictly
    serialize -- the Figure 10 mechanism."""
    sim, rt, pool, db = make_db("map")
    spans = []

    def writer(tag):
        start = sim.now
        yield from db.put_many(
            SizedBatch((f"{tag}:{i}", b"x" * 64) for i in range(100))
        )
        spans.append((start, sim.now))

    for tag in range(4):
        rt.spawn(writer(tag), pool)
    sim.run(until=5.0)
    assert len(spans) == 4
    # All writers started together, but completions are staggered by the
    # (serialized) batch insert time.
    finish = sorted(e for _, e in spans)
    gaps = [b - a for a, b in zip(finish, finish[1:])]
    batch_time = min(finish)
    for gap in gaps:
        assert gap > 0.5 * batch_time


def test_leveldb_backend_allows_parallel_inserts():
    sim, rt, pool, db = make_db("leveldb")
    finishes = []

    def writer(tag):
        yield from db.put_many(
            SizedBatch((f"{tag}:{i}", b"x" * 64) for i in range(100))
        )
        finishes.append(sim.now)

    for tag in range(4):
        rt.spawn(writer(tag), pool)
    sim.run(until=5.0)
    # With 4 ESs and no serialization all four batches finish together.
    assert max(finishes) - min(finishes) < 0.1 * max(finishes)


def test_unknown_backend_rejected():
    sim = Simulator()
    rt = AbtRuntime(sim)
    with pytest.raises(ValueError, match="unknown SDSKV backend"):
        make_database("rocksdb", rt)


def test_bytes_stored_counts_unique_keys():
    sim, rt, pool, db = make_db("map")

    def body():
        yield from db.put("k", "vvvv")
        first = db.bytes_stored
        yield from db.put("k", "wwww")  # overwrite: no growth
        assert db.bytes_stored == first

    rt.spawn(body(), pool)
    sim.run(until=1.0)
    assert db.bytes_stored > 0


def test_put_many_charges_the_batch_sizes_without_sizing(monkeypatch):
    """``put_many`` reads each pair's size from the batch: with every
    sizer broken it still stores the bytes the batch was built with."""
    import repro.mercury.serialization as serialization
    import repro.services.sdskv.backends as backends

    sim, rt, pool, db = make_db("map")
    pairs = [("k", "vvvv"), ("ключ", {"a": [1, 2.5]}), ("b", b"\x00" * 9)]
    batch = SizedBatch(pairs)
    expected = sum(estimate_size(k) + estimate_size(v) for k, v in pairs)

    def no_sizing(payload):
        raise AssertionError("put_many sized a pair")

    monkeypatch.setattr(backends, "estimate_size", no_sizing)
    monkeypatch.setattr(serialization, "estimate_size", no_sizing)
    rt.spawn(db.put_many(batch), pool)
    sim.run(until=1.0)
    assert db.bytes_stored == expected
    assert [db.peek(k) for k, _ in pairs] == [v for _, v in pairs]


# ------------------------------------------------------------ provider RPCs


def test_provider_put_get_over_rpc(world):
    SdskvProvider(world.server, provider_id=2, n_databases=2)
    cli = SdskvClient(world.client)

    def body():
        yield from cli.put("svr", 2, 0, "key-a", {"x": 1})
        yield from cli.put("svr", 2, 1, "key-b", {"x": 2})
        va = yield from cli.get("svr", 2, 0, "key-a")
        vb = yield from cli.get("svr", 2, 1, "key-b")
        cross = yield from cli.get("svr", 2, 1, "key-a")  # wrong db
        return va, vb, cross

    va, vb, cross = run_ult(world, body())
    assert va == {"x": 1}
    assert vb == {"x": 2}
    assert cross is None


def test_provider_put_packed_bulk(world):
    provider = SdskvProvider(world.server, provider_id=2)
    cli = SdskvClient(world.client)
    pairs = [(f"k{i}", b"v" * 32) for i in range(50)]

    def body():
        n = yield from cli.put_packed("svr", 2, 0, pairs)
        items = yield from cli.list_keyvals("svr", 2, 0)
        return n, items

    n, items = run_ult(world, body())
    assert n == 50
    assert len(items) == 50
    assert len(provider.databases[0]) == 50
    assert dict(items)["k7"] == b"v" * 32


def test_put_packed_stores_the_reference_byte_count(world):
    """Over the RPC, a packed batch with mixed value types and a
    repeated key stores (and charges to the process memory gauge) the
    key + value sizes of each first-written key, as sized by the
    reference sizer."""
    provider = SdskvProvider(world.server, provider_id=2)
    cli = SdskvClient(world.client)
    pairs = [
        ("a", "x" * 40),
        ("b", b"y" * 17),
        ("é", {"nested": [1, 2.0, None, "z"]}),
        ("a", "overwritten, not charged again"),
        ("c", 12345),
    ]
    first = {}
    for k, v in pairs:
        first.setdefault(k, v)
    expected = sum(estimate_size(k) + estimate_size(v) for k, v in first.items())

    def body():
        return (yield from cli.put_packed("svr", 2, 0, pairs))

    assert run_ult(world, body()) == len(pairs)
    assert provider.databases[0].bytes_stored == expected
    assert world.server.stats.memory_bytes == expected


def test_provider_exists(world):
    SdskvProvider(world.server, provider_id=2)
    cli = SdskvClient(world.client)

    def body():
        e1 = yield from cli.exists("svr", 2, 0, "k")
        yield from cli.put("svr", 2, 0, "k", 1)
        e2 = yield from cli.exists("svr", 2, 0, "k")
        return e1, e2

    e1, e2 = run_ult(world, body())
    assert e1 is False
    assert e2 is True


def test_provider_bad_db_id_fails_loudly(world):
    SdskvProvider(world.server, provider_id=2, n_databases=1)
    cli = SdskvClient(world.client)

    def body():
        yield from cli.put("svr", 2, 5, "k", 1)

    world.client.client_ult(body())
    from repro.margo import RemoteRpcError

    with pytest.raises(RemoteRpcError, match="db_id 5 out of range"):
        world.sim.run(until=1.0)


def test_provider_validates_database_count(world):
    with pytest.raises(ValueError):
        SdskvProvider(world.server, n_databases=0)


def test_provider_memory_gauge_grows(world):
    SdskvProvider(world.server, provider_id=2)
    cli = SdskvClient(world.client)

    def body():
        yield from cli.put_packed(
            "svr", 2, 0, [(f"k{i}", b"x" * 100) for i in range(10)]
        )

    run_ult(world, body())
    assert world.server.stats.memory_bytes > 1000


def test_list_keyvals_scan_cost_scales(world):
    """Listing a fuller database takes longer (the Figure 6 driver)."""
    SdskvProvider(world.server, provider_id=2)
    cli = SdskvClient(world.client)
    times = {}

    def body():
        t0 = world.sim.now
        yield from cli.list_keyvals("svr", 2, 0)
        times["small"] = world.sim.now - t0
        yield from cli.put_packed(
            "svr", 2, 0, [(f"k{i}", b"x") for i in range(2000)]
        )
        t0 = world.sim.now
        yield from cli.list_keyvals("svr", 2, 0)
        times["large"] = world.sim.now - t0

    run_ult(world, body(), until=5.0)
    assert times["large"] > 5 * times["small"]
