"""Tests for the Table IV configuration definitions."""

import pytest

from repro.experiments import TABLE_IV, table_iv_rows
from repro.experiments.configs import HEPnOSConfig


def test_table_iv_has_seven_configs():
    assert list(TABLE_IV) == ["C1", "C2", "C3", "C4", "C5", "C6", "C7"]


def test_table_iv_matches_paper_values():
    c1 = TABLE_IV["C1"]
    assert (c1.total_clients, c1.clients_per_node) == (32, 16)
    assert (c1.total_servers, c1.servers_per_node) == (4, 2)
    assert c1.batch_size == 1024
    assert c1.threads == 5
    assert c1.databases == 32
    assert not c1.client_progress_thread
    assert c1.ofi_max_events == 16

    c5 = TABLE_IV["C5"]
    assert c5.batch_size == 1
    assert (c5.total_clients, c5.clients_per_node) == (2, 1)

    c7 = TABLE_IV["C7"]
    assert c7.client_progress_thread
    assert c7.ofi_max_events == 64


def test_only_deltas_change_between_neighbours():
    """Each configuration differs from its study partner in exactly the
    parameters the paper varies."""
    c1, c2, c3 = TABLE_IV["C1"], TABLE_IV["C2"], TABLE_IV["C3"]
    assert c2.scaled(name="C1", threads=c1.threads) == c1
    assert c3.scaled(name="C2", databases=c2.databases) == c2
    c4, c5, c6, c7 = (TABLE_IV[k] for k in ("C4", "C5", "C6", "C7"))
    assert c5.scaled(name="C4", batch_size=1024) == c4
    assert c6.scaled(name="C5", ofi_max_events=16) == c5
    assert c7.scaled(name="C6", client_progress_thread=False) == c6


def test_databases_per_server():
    assert TABLE_IV["C1"].databases_per_server == 8
    assert TABLE_IV["C3"].databases_per_server == 2


def test_node_counts():
    c1 = TABLE_IV["C1"]
    assert c1.server_nodes == 2


def test_validation():
    with pytest.raises(ValueError):
        HEPnOSConfig(
            name="bad", total_clients=0, clients_per_node=1,
            total_servers=1, servers_per_node=1, batch_size=1, threads=1,
            databases=1, client_progress_thread=False, ofi_max_events=16,
        )
    with pytest.raises(ValueError):
        HEPnOSConfig(
            name="bad", total_clients=1, clients_per_node=1,
            total_servers=4, servers_per_node=2, batch_size=1, threads=1,
            databases=6,  # not divisible by 4
            client_progress_thread=False, ofi_max_events=16,
        )


def test_table_iv_rows_render():
    rows = table_iv_rows()
    assert len(rows) == 7
    assert rows[0]["Configuration"] == "C1"
    assert rows[6]["Client Progress Thread?"] == "yes"
