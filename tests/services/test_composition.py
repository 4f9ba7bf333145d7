"""Composition tests: many providers on one process, cross-service flows."""

import pytest

from repro.margo import MargoConfig, MargoInstance
from repro.mercury import SizedBatch
from repro.net import Fabric, FabricConfig
from repro.services.bake import BakeClient, BakeProvider
from repro.services.sdskv import SdskvClient, SdskvProvider
from repro.services.sonata import SonataClient, SonataProvider
from repro.sim import Simulator
from repro.symbiosys import Stage, SymbiosysCollector


def make_composed_world(stage=None):
    """One server process hosting BAKE + SDSKV + Sonata providers."""
    sim = Simulator()
    fabric = Fabric(sim, FabricConfig())
    collector = SymbiosysCollector(stage) if stage is not None else None
    server = MargoInstance(
        sim, fabric, "svr", "n0",
        config=MargoConfig(n_handler_es=4),
        instrumentation=collector.create_instrumentation() if collector else None,
    )
    BakeProvider(server, provider_id=1)
    SdskvProvider(server, provider_id=2, n_databases=2)
    SonataProvider(server, provider_id=3)
    client_mi = MargoInstance(
        sim, fabric, "cli", "n1",
        instrumentation=collector.create_instrumentation() if collector else None,
    )
    return sim, server, client_mi, collector


def run_gen(sim, mi, gen, limit=5.0):
    out = {}

    def body():
        out["result"] = yield from gen

    mi.client_ult(body())
    assert sim.run_until(lambda: "result" in out, limit=limit)
    return out["result"]


def test_three_services_one_process():
    sim, server, client_mi, _ = make_composed_world()
    bake = BakeClient(client_mi)
    skv = SdskvClient(client_mi)
    sonata = SonataClient(client_mi)

    def flow():
        rid = yield from bake.create_write_persist("svr", 1, b"blob" * 100)
        yield from skv.put("svr", 2, 0, "region", rid)
        yield from sonata.create_database("svr", 3, "meta")
        yield from sonata.store_multi(
            "svr", 3, "meta", SizedBatch([{"rid": rid, "kind": "blob"}])
        )
        # Cross-service read path: sonata -> sdskv -> bake.
        docs = yield from sonata.filter(
            "svr", 3, "meta", {"field": "kind", "op": "==", "value": "blob"}
        )
        looked_up = yield from skv.get("svr", 2, 0, "region")
        data = yield from bake.read("svr", 1, looked_up, 0)
        return docs, looked_up, data

    docs, looked_up, data = run_gen(sim, client_mi, flow())
    assert docs[0]["rid"] == looked_up
    assert data == b"blob" * 100


def test_concurrent_mixed_service_traffic():
    sim, server, client_mi, _ = make_composed_world()
    bake = BakeClient(client_mi)
    skv = SdskvClient(client_mi)
    done = []

    def bake_flow(i):
        rid = yield from bake.create_write_persist("svr", 1, bytes([i]) * 64)
        got = yield from bake.read("svr", 1, rid, 0)
        assert got == bytes([i]) * 64
        done.append(("bake", i))

    def skv_flow(i):
        yield from skv.put("svr", 2, i % 2, f"k{i}", i * i)
        v = yield from skv.get("svr", 2, i % 2, f"k{i}")
        assert v == i * i
        done.append(("skv", i))

    for i in range(6):
        client_mi.client_ult(bake_flow(i), name=f"b{i}")
        client_mi.client_ult(skv_flow(i), name=f"s{i}")
    assert sim.run_until(lambda: len(done) == 12, limit=5.0)


def test_composed_process_callpaths_distinguish_providers():
    """With three providers on one process, callpaths still resolve per
    RPC name and the process appears once as the target entity."""
    from repro.symbiosys.analysis import profile_summary

    sim, server, client_mi, collector = make_composed_world(Stage.FULL)
    bake = BakeClient(client_mi)
    skv = SdskvClient(client_mi)

    def flow():
        yield from bake.create("svr", 1, 128)
        yield from skv.put("svr", 2, 0, "k", 1)

    run_gen(sim, client_mi, flow())
    summary = profile_summary(collector)
    names = {row.name for row in summary.rows}
    assert "bake_create_rpc" in names
    assert "sdskv_put_rpc" in names
    for row in summary.rows:
        assert row.target_counts == {"svr": 1}
