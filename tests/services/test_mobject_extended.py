"""Tests for the extended Mobject RADOS-subset ops (stat/delete/omap)."""

import pytest

from repro.cluster import Cluster
from repro.services.mobject import MobjectClient, MobjectProviderNode


def make_world():
    cluster = Cluster(stage=None)
    node = MobjectProviderNode(cluster.process("mobj0", "n0", n_handler_es=4))
    mi = cluster.process("cli", "n0")
    client = MobjectClient(mi)
    return cluster.sim, node, mi, client


def run_gen(sim, mi, gen, limit=5.0):
    out = {}

    def body():
        out["result"] = yield from gen

    mi.client_ult(body())
    assert sim.run_until(lambda: "result" in out, limit=limit)
    return out["result"]


def test_stat_reports_size_and_mtime():
    sim, node, mi, client = make_world()

    def flow():
        yield from client.write_op("mobj0", "obj", b"x" * 300)
        stat = yield from client.stat_op("mobj0", "obj")
        return stat

    size, mtime = run_gen(sim, mi, flow())
    assert size == 300
    assert 0 < mtime <= sim.now


def test_stat_missing_object():
    sim, node, mi, client = make_world()

    def flow():
        return (yield from client.stat_op("mobj0", "ghost"))

    assert run_gen(sim, mi, flow()) is None


def test_delete_removes_object_and_metadata():
    sim, node, mi, client = make_world()

    def flow():
        yield from client.write_op("mobj0", "victim", b"d" * 64)
        n = yield from client.delete_op("mobj0", "victim")
        gone = yield from client.read_op("mobj0", "victim")
        stat = yield from client.stat_op("mobj0", "victim")
        return n, gone, stat

    n, gone, stat = run_gen(sim, mi, flow())
    assert n == 1  # one extent removed
    assert gone is None
    assert stat is None
    # All sdskv metadata for the object is really gone.
    assert all(
        "victim" not in key
        for db in node.sdskv.databases
        for key in db._data
    )


def test_delete_missing_object():
    sim, node, mi, client = make_world()

    def flow():
        return (yield from client.delete_op("mobj0", "nope"))

    assert run_gen(sim, mi, flow()) is None


def test_delete_multi_extent_object():
    sim, node, mi, client = make_world()

    def flow():
        for i in range(3):
            yield from client.write_op("mobj0", "big", b"z" * 32, offset=i * 32)
        n = yield from client.delete_op("mobj0", "big")
        return n

    assert run_gen(sim, mi, flow()) == 3


def test_omap_get_keys():
    sim, node, mi, client = make_world()

    def flow():
        yield from client.write_op("mobj0", "o1", b"k" * 16)
        keys = yield from client.omap_get_keys("mobj0", "o1")
        return keys

    assert run_gen(sim, mi, flow()) == ["mtime"]


def test_omap_get_keys_empty_for_missing():
    sim, node, mi, client = make_world()

    def flow():
        return (yield from client.omap_get_keys("mobj0", "ghost"))

    assert run_gen(sim, mi, flow()) == []
