"""Tests for the composed Mobject service."""

import pytest

from repro.cluster import Cluster
from repro.services.mobject import MobjectClient, MobjectProviderNode
from repro.symbiosys import Stage, push


def make_mobject_world(stage=None, n_handler_es=4):
    cluster = Cluster(stage=stage)
    node = MobjectProviderNode(
        cluster.process("mobj0", "n0", n_handler_es=n_handler_es)
    )
    # Colocated, like the paper's ior setup.
    client_mi = cluster.process("cli", "n0")
    client = MobjectClient(client_mi)
    return cluster.sim, node, client_mi, client, cluster.collector


def run_body(sim, client_mi, gen, until=5.0):
    done = {}

    def wrapper():
        done["result"] = (yield from gen)

    client_mi.client_ult(wrapper())
    sim.run_until(lambda: "result" in done, limit=until)
    assert "result" in done, "mobject op did not complete"
    return done["result"]


def test_write_then_read_roundtrip():
    sim, node, client_mi, client, _ = make_mobject_world()
    data = b"object-payload" * 100

    def body():
        ret = yield from client.write_op("mobj0", "oid-1", data)
        got = yield from client.read_op("mobj0", "oid-1")
        return ret, got

    ret, got = run_body(sim, client_mi, body())
    assert ret == 0
    assert got == data


def test_read_missing_object_returns_none():
    sim, node, client_mi, client, _ = make_mobject_world()

    def body():
        got = yield from client.read_op("mobj0", "ghost")
        return got

    assert run_body(sim, client_mi, body()) is None


def test_write_op_issues_twelve_discrete_calls():
    """The write path fans out into exactly 12 SDSKV/BAKE RPCs (Fig 5)."""
    sim, node, client_mi, client, collector = make_mobject_world(Stage.STAGE2)

    def body():
        yield from client.write_op("mobj0", "oid-x", b"d" * 256)

    run_body(sim, client_mi, body())
    from repro.symbiosys import EventKind

    events = collector.all_events()
    root_code = push(0, "mobject_write_op")
    nested_forwards = [
        e
        for e in events
        if e.kind is EventKind.ORIGIN_FORWARD and e.callpath != root_code
    ]
    assert len(nested_forwards) == 12
    # All nested calls chain under the write op.
    for ev in nested_forwards:
        assert (ev.callpath >> 16) == root_code


def test_write_op_nested_call_mix():
    sim, node, client_mi, client, collector = make_mobject_world(Stage.STAGE2)

    def body():
        yield from client.write_op("mobj0", "oid-y", b"d" * 64)

    run_body(sim, client_mi, body())
    from repro.symbiosys import EventKind

    names = [
        e.rpc_name
        for e in collector.all_events()
        if e.kind is EventKind.ORIGIN_FORWARD and e.rpc_name != "mobject_write_op"
    ]
    assert names.count("sdskv_put_rpc") == 5
    assert names.count("sdskv_get_rpc") == 2
    assert names.count("sdskv_exists_rpc") == 1
    assert names.count("bake_create_rpc") == 1
    assert names.count("bake_write_rpc") == 1
    assert names.count("bake_persist_rpc") == 1
    assert names.count("bake_get_size_rpc") == 1
    assert len(names) == 12


def test_read_op_uses_list_keyvals():
    sim, node, client_mi, client, collector = make_mobject_world(Stage.STAGE2)

    def body():
        yield from client.write_op("mobj0", "oid-z", b"abc" * 50)
        yield from client.read_op("mobj0", "oid-z")

    run_body(sim, client_mi, body())
    from repro.symbiosys import EventKind

    read_code = push(0, "mobject_read_op")
    read_children = [
        e.rpc_name
        for e in collector.all_events()
        if e.kind is EventKind.ORIGIN_FORWARD
        and (e.callpath >> 16) == read_code
    ]
    assert "sdskv_list_keyvals_rpc" in read_children
    assert "bake_read_rpc" in read_children


def test_multiple_writes_accumulate_extents():
    sim, node, client_mi, client, _ = make_mobject_world()

    def body():
        for i in range(3):
            yield from client.write_op("mobj0", "multi", b"x" * 64, offset=i * 64)
        got = yield from client.read_op("mobj0", "multi")
        return got

    got = run_body(sim, client_mi, body())
    assert got == b"x" * 64  # newest extent
    assert len(node.sdskv.databases[0]) > 5


def test_concurrent_clients_all_complete():
    cluster = Cluster(stage=None)
    sim = cluster.sim
    MobjectProviderNode(cluster.process("mobj0", "n0", n_handler_es=4))
    results = []
    for rank in range(6):
        mi = cluster.process(f"cli{rank}", "n0")
        cl = MobjectClient(mi)

        def body(c=cl, r=rank):
            ret = yield from c.write_op("mobj0", f"o{r}", b"p" * 128)
            results.append(ret)

        mi.client_ult(body())
    sim.run_until(lambda: len(results) == 6, limit=5.0)
    assert results == [0] * 6
