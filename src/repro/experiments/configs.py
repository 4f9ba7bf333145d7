"""Table IV: the HEPnOS service configurations C1..C7.

"Databases" is the *total* database count across the deployment (the
origin hashes keys over the total, §V-C-3); each server provider hosts
``databases / n_servers`` of them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["HEPnOSConfig", "TABLE_IV", "table_iv_rows"]


@dataclass(frozen=True)
class HEPnOSConfig:
    """One row of Table IV."""

    name: str
    total_clients: int
    clients_per_node: int
    total_servers: int
    servers_per_node: int
    batch_size: int
    threads: int  # handler execution streams per server
    databases: int  # total across the deployment
    client_progress_thread: bool
    ofi_max_events: int

    def __post_init__(self) -> None:
        if self.total_clients < 1 or self.total_servers < 1:
            raise ValueError("need at least one client and one server")
        if self.clients_per_node < 1 or self.servers_per_node < 1:
            raise ValueError("per-node counts must be positive")
        if self.batch_size < 1 or self.threads < 1 or self.ofi_max_events < 1:
            raise ValueError("batch size, threads, and OFI_max_events must be positive")
        if self.databases % self.total_servers != 0:
            raise ValueError(
                "total databases must divide evenly across servers"
            )

    @property
    def databases_per_server(self) -> int:
        return self.databases // self.total_servers

    @property
    def server_nodes(self) -> int:
        return -(-self.total_servers // self.servers_per_node)

    def scaled(self, **overrides) -> "HEPnOSConfig":
        """A copy with some fields replaced (used to scale workloads to
        simulation size while keeping Table IV ratios)."""
        return replace(self, **overrides)


_BASE_LARGE = dict(
    total_clients=32,
    clients_per_node=16,
    total_servers=4,
    servers_per_node=2,
)
_BASE_SMALL = dict(
    total_clients=2,
    clients_per_node=1,
    total_servers=4,
    servers_per_node=2,
)

TABLE_IV: dict[str, HEPnOSConfig] = {
    "C1": HEPnOSConfig(
        name="C1", **_BASE_LARGE, batch_size=1024, threads=5, databases=32,
        client_progress_thread=False, ofi_max_events=16,
    ),
    "C2": HEPnOSConfig(
        name="C2", **_BASE_LARGE, batch_size=1024, threads=20, databases=32,
        client_progress_thread=False, ofi_max_events=16,
    ),
    "C3": HEPnOSConfig(
        name="C3", **_BASE_LARGE, batch_size=1024, threads=20, databases=8,
        client_progress_thread=False, ofi_max_events=16,
    ),
    "C4": HEPnOSConfig(
        name="C4", **_BASE_SMALL, batch_size=1024, threads=16, databases=8,
        client_progress_thread=False, ofi_max_events=16,
    ),
    "C5": HEPnOSConfig(
        name="C5", **_BASE_SMALL, batch_size=1, threads=16, databases=8,
        client_progress_thread=False, ofi_max_events=16,
    ),
    "C6": HEPnOSConfig(
        name="C6", **_BASE_SMALL, batch_size=1, threads=16, databases=8,
        client_progress_thread=False, ofi_max_events=64,
    ),
    "C7": HEPnOSConfig(
        name="C7", **_BASE_SMALL, batch_size=1, threads=16, databases=8,
        client_progress_thread=True, ofi_max_events=64,
    ),
}


def table_iv_rows() -> list[dict]:
    """Table IV rendered as dict rows (the bench prints these)."""
    rows = []
    for cfg in TABLE_IV.values():
        rows.append(
            {
                "Configuration": cfg.name,
                "Total Clients; Clients Per Node": f"{cfg.total_clients}; {cfg.clients_per_node}",
                "Total Servers; Servers Per Node": f"{cfg.total_servers}; {cfg.servers_per_node}",
                "Batch Size": cfg.batch_size,
                "Threads (ESs)": cfg.threads,
                "Databases": cfg.databases,
                "Client Progress Thread?": "yes" if cfg.client_progress_thread else "no",
                "OFI_max_events": cfg.ofi_max_events,
            }
        )
    return rows
