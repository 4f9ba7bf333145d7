"""Tests for HEPnOS: hierarchy, service deployment, client, data-loader."""

import pytest

from repro.cluster import Cluster
from repro.services.hepnos import (
    DataLoader,
    DataLoaderConfig,
    HEPnOSClient,
    HEPnOSService,
    event_key,
)
from repro.workloads import flatten_to_pairs, generate_event_files


# ------------------------------------------------------------ hierarchy


def test_event_key_roundtrip():
    key = event_key("NOvA", 3, 7, 123456)
    assert key == "NOvA%000000003%000000007%000123456"
    dataset, *numbers = key.split("%")
    assert (dataset, *map(int, numbers)) == ("NOvA", 3, 7, 123456)


def test_event_key_ordering_is_numeric():
    k_small = event_key("d", 1, 0, 2)
    k_large = event_key("d", 1, 0, 10)
    assert k_small < k_large  # lexicographic == numeric thanks to padding


def test_event_key_validation():
    with pytest.raises(ValueError):
        event_key("bad%name", 0, 0, 0)
    with pytest.raises(ValueError):
        event_key("d", -1, 0, 0)
    with pytest.raises(ValueError):
        event_key("d", 10**9, 0, 0)
    for subrun, event in ((-1, 0), (0, -1), (10**9, 0), (0, 10**9)):
        with pytest.raises(ValueError):
            event_key("d", 0, subrun, event)


# ------------------------------------------------------------ deployment


def make_hepnos_world(
    n_servers=2,
    servers_per_node=1,
    n_databases=4,
    n_handler_es=4,
    n_clients=1,
    **deploy_kw,
):
    cluster = Cluster(stage=None)
    service = HEPnOSService.deploy(
        cluster,
        n_servers=n_servers,
        servers_per_node=servers_per_node,
        n_handler_es=n_handler_es,
        n_databases=n_databases,
        **deploy_kw,
    )
    clients = [
        cluster.process(f"cli{i}", f"cnode{i}") for i in range(n_clients)
    ]
    return cluster.sim, service, clients


def test_deploy_layout():
    sim, service, _ = make_hepnos_world(n_servers=4, servers_per_node=2)
    assert [s.addr for s in service.servers] == [
        "hepnos0",
        "hepnos1",
        "hepnos2",
        "hepnos3",
    ]
    assert service.servers[0].node == "snode0"
    assert service.servers[1].node == "snode0"
    assert service.servers[2].node == "snode1"
    assert service.total_databases == 16


def test_deploy_validation():
    with pytest.raises(ValueError):
        HEPnOSService.deploy(
            Cluster(stage=None),
            n_servers=0,
            servers_per_node=1,
            n_handler_es=1,
            n_databases=1,
        )


def test_locate_maps_global_db_index():
    sim, service, _ = make_hepnos_world(n_servers=2, n_databases=3)
    assert service.locate(0) == ("hepnos0", 0)
    assert service.locate(2) == ("hepnos0", 2)
    assert service.locate(3) == ("hepnos1", 0)
    assert service.locate(5) == ("hepnos1", 2)
    with pytest.raises(ValueError):
        service.locate(6)


def test_client_hashing_is_stable_and_spread():
    sim, service, clients = make_hepnos_world(n_databases=8)
    client = HEPnOSClient(clients[0], service)
    keys = [event_key("d", 0, 0, i) for i in range(200)]
    indices = [client.db_index_for(k) for k in keys]
    assert indices == [client.db_index_for(k) for k in keys]  # stable
    assert len(set(indices)) > 8  # spread over many of the 16 dbs


def test_store_and_load_event():
    sim, service, clients = make_hepnos_world()
    client = HEPnOSClient(clients[0], service)
    key = event_key("NOvA", 1, 2, 3)
    done = {}

    def body():
        yield from client.store_event(key, b"physics!")
        done["value"] = yield from client.load_event(key)

    clients[0].client_ult(body())
    sim.run_until(lambda: "value" in done, limit=2.0)
    assert done["value"] == b"physics!"


def test_group_by_database_partitions_pairs():
    sim, service, clients = make_hepnos_world()
    client = HEPnOSClient(clients[0], service)
    pairs = [(event_key("d", 0, 0, i), b"x") for i in range(64)]
    groups = client.group_by_database(pairs)
    assert sum(len(g) for g in groups.values()) == 64
    assert all(
        client.db_index_for(k) == db for db, g in groups.items() for k, _ in g
    )


# ------------------------------------------------------------ data-loader


def test_dataloader_stores_everything():
    sim, service, clients = make_hepnos_world()
    files = generate_event_files(n_files=2, events_per_file=64)
    pairs = flatten_to_pairs(files)
    loader = DataLoader(
        clients[0], service, DataLoaderConfig(batch_size=32, pipeline_width=4)
    )
    loader.load(pairs)
    sim.run_until(lambda: loader.done, limit=10.0)
    assert loader.done
    assert loader.events_stored == len(pairs)
    stored = sum(
        len(db) for p in service.sdskv_providers for db in p.databases
    )
    assert stored == len(pairs)


def test_dataloader_data_integrity():
    """What the loader stores is literally retrievable."""
    sim, service, clients = make_hepnos_world()
    files = generate_event_files(n_files=1, events_per_file=16)
    pairs = flatten_to_pairs(files)
    loader = DataLoader(clients[0], service, DataLoaderConfig(batch_size=8))
    loader.load(pairs)
    sim.run_until(lambda: loader.done, limit=10.0)
    client = HEPnOSClient(clients[0], service)
    done = {}

    def body():
        done["value"] = yield from client.load_event(pairs[5][0])

    clients[0].client_ult(body())
    sim.run_until(lambda: "value" in done, limit=sim.now + 12.0)
    assert done["value"] == pairs[5][1]


def test_larger_batch_means_fewer_rpcs():
    counts = {}
    for batch in (1, 64):
        sim, service, clients = make_hepnos_world()
        pairs = flatten_to_pairs(generate_event_files(n_files=1, events_per_file=128))
        loader = DataLoader(
            clients[0], service, DataLoaderConfig(batch_size=batch, pipeline_width=2)
        )
        loader.load(pairs)
        sim.run_until(lambda: loader.done, limit=60.0)
        assert loader.done
        counts[batch] = loader.client.rpcs_issued
    assert counts[1] == 128  # one RPC per event
    assert counts[64] < counts[1] / 4


def test_more_databases_means_more_rpcs():
    """Same workload, same batch size: more total databases fan each
    window into more put_packed RPCs (§V-C-3)."""
    counts = {}
    for dbs in (2, 16):
        sim, service, clients = make_hepnos_world(n_databases=dbs)
        pairs = flatten_to_pairs(generate_event_files(n_files=1, events_per_file=128))
        loader = DataLoader(
            clients[0], service, DataLoaderConfig(batch_size=64, pipeline_width=2)
        )
        loader.load(pairs)
        sim.run_until(lambda: loader.done, limit=60.0)
        assert loader.done
        counts[dbs] = loader.client.rpcs_issued
    assert counts[16] > 2 * counts[2]


def test_dataloader_config_validation():
    with pytest.raises(ValueError):
        DataLoaderConfig(batch_size=0)
    with pytest.raises(ValueError):
        DataLoaderConfig(pipeline_width=0)


def test_synthetic_files_shape():
    files = generate_event_files(n_files=3, events_per_file=32, mean_event_bytes=512)
    assert len(files) == 3
    for f in files:
        assert len(f.events) == 32
        assert sum(len(p) for _, _, p in f.events) > 32 * 64
        for subrun, event, payload in f.events:
            assert isinstance(payload, bytes)
            assert len(payload) >= 16
    # Deterministic: same seed, same bytes.
    again = generate_event_files(n_files=3, events_per_file=32, mean_event_bytes=512)
    assert files[0].events[0][2] == again[0].events[0][2]


def test_synthetic_files_validation():
    with pytest.raises(ValueError):
        generate_event_files(n_files=0)
    with pytest.raises(ValueError):
        generate_event_files(mean_event_bytes=0)
