"""Tests for the multi-node Mobject cluster (placement over SSG)."""

import pytest

from repro.cluster import Cluster
from repro.services.mobject_cluster import MobjectCluster, MobjectClusterClient


def make_cluster(n_nodes=3):
    deployment = Cluster(stage=None)
    cluster = MobjectCluster.deploy(deployment, n_provider_nodes=n_nodes)
    mi = deployment.process("cli", "cn0")
    client = MobjectClusterClient(mi, cluster)
    return deployment.sim, cluster, mi, client


def run_gen(sim, mi, gen, limit=10.0):
    out = {}

    def body():
        out["result"] = yield from gen

    mi.client_ult(body())
    assert sim.run_until(lambda: "result" in out, limit=limit)
    return out["result"]


def test_deploy_validates():
    with pytest.raises(ValueError):
        MobjectCluster.deploy(Cluster(stage=None), n_provider_nodes=0)


def test_group_membership_matches_nodes():
    sim, cluster, mi, client = make_cluster(4)
    assert cluster.size == 4
    assert cluster.group.members == [f"mobject{i}" for i in range(4)]


def test_placement_is_stable_and_spread():
    sim, cluster, mi, client = make_cluster(4)
    owners = {cluster.owner_of(f"obj{i}") for i in range(64)}
    assert owners <= set(cluster.group.members)
    assert len(owners) >= 3  # well spread
    assert cluster.owner_of("objX") == cluster.owner_of("objX")


def test_write_read_across_owners():
    sim, cluster, mi, client = make_cluster(3)
    payloads = {f"o{i}": bytes([i]) * 128 for i in range(10)}

    def flow():
        for oid, data in payloads.items():
            yield from client.write_op(oid, data)
        got = {}
        for oid in payloads:
            got[oid] = yield from client.read_op(oid)
        return got

    got = run_gen(sim, mi, flow())
    assert got == payloads
    # Data really landed on multiple distinct provider nodes.
    populated = [n for n in cluster.nodes if n.sdskv.total_items > 0]
    assert len(populated) >= 2


def test_stat_and_delete_route_to_owner():
    sim, cluster, mi, client = make_cluster(3)

    def flow():
        yield from client.write_op("thing", b"x" * 50)
        stat = yield from client.stat_op("thing")
        n = yield from client.delete_op("thing")
        gone = yield from client.read_op("thing")
        return stat, n, gone

    stat, n, gone = run_gen(sim, mi, flow())
    assert stat[0] == 50
    assert n == 1
    assert gone is None


def test_objects_only_on_their_owner():
    sim, cluster, mi, client = make_cluster(3)

    def flow():
        yield from client.write_op("lonely", b"z" * 40)

    run_gen(sim, mi, flow())
    owner = cluster.owner_of("lonely")
    for node in cluster.nodes:
        has_it = any("lonely" in key for db in node.sdskv.databases
                     for key in db._data)
        assert has_it == (node.addr == owner)
