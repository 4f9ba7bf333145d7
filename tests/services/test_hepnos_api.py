"""Tests for the HEPnOS navigation API (DataSet / Run / SubRun)."""

import pytest

from repro.cluster import Cluster
from repro.services.hepnos import DataSet, HEPnOSClient, HEPnOSService


def make_world():
    cluster = Cluster(stage=None)
    service = HEPnOSService.deploy(
        cluster, n_servers=2, servers_per_node=1,
        n_handler_es=4, n_databases=4,
    )
    mi = cluster.process("cli", "cnode0")
    client = HEPnOSClient(mi, service)
    return cluster.sim, mi, client


def run_gen(sim, mi, gen, limit=10.0):
    out = {}

    def body():
        out["result"] = yield from gen

    mi.client_ult(body())
    assert sim.run_until(lambda: "result" in out, limit=limit)
    return out["result"]


def test_create_run_and_lookup():
    sim, mi, client = make_world()
    ds = DataSet(client, "NOvA")

    def flow():
        run = yield from ds.create_run(3)
        found = yield from ds.run(3)
        missing = yield from ds.run(99)
        return run, found, missing

    run, found, missing = run_gen(sim, mi, flow())
    assert run.number == 3
    assert found is not None and found.number == 3
    assert missing is None


def test_runs_listing_in_order():
    sim, mi, client = make_world()
    ds = DataSet(client, "DS")

    def flow():
        for n in (5, 1, 3):
            yield from ds.create_run(n)
        runs = yield from ds.runs()
        return [r.number for r in runs]

    assert run_gen(sim, mi, flow()) == [1, 3, 5]


def test_subrun_event_roundtrip():
    sim, mi, client = make_world()
    ds = DataSet(client, "DS")

    def flow():
        run = yield from ds.create_run(1)
        sr = yield from run.create_subrun(2)
        yield from sr.store_event(7, b"payload-7")
        got = yield from sr.event(7)
        missing = yield from sr.event(8)
        return got, missing

    got, missing = run_gen(sim, mi, flow())
    assert got == b"payload-7"
    assert missing is None


def test_subruns_listing_scoped_to_run():
    sim, mi, client = make_world()
    ds = DataSet(client, "DS")

    def flow():
        r1 = yield from ds.create_run(1)
        r2 = yield from ds.create_run(2)
        yield from r1.create_subrun(0)
        yield from r1.create_subrun(4)
        yield from r2.create_subrun(9)
        s1 = yield from r1.subruns()
        s2 = yield from r2.subruns()
        return [s.number for s in s1], [s.number for s in s2]

    s1, s2 = run_gen(sim, mi, flow())
    assert s1 == [0, 4]
    assert s2 == [9]


def test_batch_store_and_event_iteration():
    sim, mi, client = make_world()
    ds = DataSet(client, "DS")
    payloads = [(i, bytes([i]) * 16) for i in range(12)]

    def flow():
        run = yield from ds.create_run(1)
        sr = yield from run.create_subrun(0)
        yield from sr.store_events(payloads)
        events = yield from sr.events()
        return events

    events = run_gen(sim, mi, flow())
    # Markers are excluded; events come back in order with exact content.
    assert events == payloads


def test_events_scoped_per_subrun():
    sim, mi, client = make_world()
    ds = DataSet(client, "DS")

    def flow():
        run = yield from ds.create_run(1)
        a = yield from run.create_subrun(0)
        b = yield from run.create_subrun(1)
        yield from a.store_event(1, b"a1")
        yield from b.store_event(1, b"b1")
        ev_a = yield from a.events()
        ev_b = yield from b.events()
        return ev_a, ev_b

    ev_a, ev_b = run_gen(sim, mi, flow())
    assert ev_a == [(1, b"a1")]
    assert ev_b == [(1, b"b1")]
