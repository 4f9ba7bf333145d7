"""Table IV: the HEPnOS service configurations.

Regenerates the configuration table and verifies each row deploys to a
working service with the stated shape (server/ES/database counts).
"""

from repro.cluster import Cluster
from repro.experiments import TABLE_IV, ascii_table, table_iv_rows
from repro.services.hepnos import HEPnOSService
from .conftest import run_once

PAPER_ROWS = {
    "C1": (32, 16, 4, 2, 1024, 5, 32, False, 16),
    "C2": (32, 16, 4, 2, 1024, 20, 32, False, 16),
    "C3": (32, 16, 4, 2, 1024, 20, 8, False, 16),
    "C4": (2, 1, 4, 2, 1024, 16, 8, False, 16),
    "C5": (2, 1, 4, 2, 1, 16, 8, False, 16),
    "C6": (2, 1, 4, 2, 1, 16, 8, False, 64),
    "C7": (2, 1, 4, 2, 1, 16, 8, True, 64),
}


def _deploy_all():
    shapes = {}
    for name, cfg in TABLE_IV.items():
        service = HEPnOSService.deploy(
            Cluster(stage=None),
            n_servers=cfg.total_servers,
            servers_per_node=cfg.servers_per_node,
            n_handler_es=cfg.threads,
            n_databases=cfg.databases_per_server,
        )
        shapes[name] = {
            "servers": len(service.servers),
            "nodes": len({s.node for s in service.servers}),
            "total_dbs": service.total_databases,
            "handler_es": len(service.servers[0].rt.xstreams) - 1,
        }
    return shapes


def test_table4_configs(benchmark, report):
    shapes = run_once(benchmark, _deploy_all)
    report.append("Table IV: HEPnOS Service Configurations")
    report.append(ascii_table(table_iv_rows()))

    for name, cfg in TABLE_IV.items():
        paper = PAPER_ROWS[name]
        assert (
            cfg.total_clients,
            cfg.clients_per_node,
            cfg.total_servers,
            cfg.servers_per_node,
            cfg.batch_size,
            cfg.threads,
            cfg.databases,
            cfg.client_progress_thread,
            cfg.ofi_max_events,
        ) == paper, f"{name} deviates from the paper's Table IV"
        shape = shapes[name]
        assert shape["servers"] == cfg.total_servers
        assert shape["nodes"] == cfg.server_nodes
        assert shape["total_dbs"] == cfg.databases
        assert shape["handler_es"] == cfg.threads
