"""HEPnOS service deployment and client API.

Each HEPnOS service provider process hosts one BAKE provider (object
data) and one SDSKV provider (object metadata) -- Figure 8.  Clients
talk to the providers directly.  Event storage goes through
``sdskv_put_packed``: the client hashes each event key over the *total*
number of databases in the deployment to pick the destination database
(and therefore server), mirroring the paper's §V-C-3 description.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Generator, Optional

from ...margo import MargoInstance
from ...ssg import SSGGroup
from ..bake import BakeProvider
from ..sdskv import BackendCosts, SdskvClient, SdskvProvider

__all__ = ["HEPnOSService", "HEPnOSClient", "PID_BAKE", "PID_SDSKV"]

PID_BAKE = 1
PID_SDSKV = 2


def _stable_hash(key: str) -> int:
    return int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "little")


@dataclass
class _ServerInfo:
    addr: str
    node: str
    n_databases: int


class HEPnOSService:
    """A deployed HEPnOS service: N server processes over M nodes."""

    def __init__(self) -> None:
        self.servers: list[MargoInstance] = []
        self.sdskv_providers: list[SdskvProvider] = []
        self.bake_providers: list[BakeProvider] = []
        self.info: list[_ServerInfo] = []
        #: Databases across every server, counted once by :meth:`deploy`:
        #: the client hashes every event key modulo it.
        self.total_databases = 0
        #: Service membership (clients discover servers through this).
        self.group = SSGGroup("hepnos")

    @classmethod
    def deploy(
        cls,
        cluster,
        *,
        n_servers: int,
        servers_per_node: int,
        n_handler_es: int,
        n_databases: int,
        backend: str = "map",
        sdskv_costs: Optional[BackendCosts] = None,
    ) -> "HEPnOSService":
        """Create the server processes on ``cluster`` (a
        :class:`~repro.cluster.Cluster`).  ``n_databases`` is per
        provider (Table IV's "Databases" divided across servers is
        handled by the caller passing per-server counts)."""
        if n_servers < 1 or servers_per_node < 1:
            raise ValueError("need at least one server and one per node")
        service = cls()
        for i in range(n_servers):
            node = f"snode{i // servers_per_node}"
            addr = f"hepnos{i}"
            mi = cluster.process(addr, node, n_handler_es=n_handler_es)
            service.servers.append(mi)
            service.bake_providers.append(BakeProvider(mi, PID_BAKE))
            service.sdskv_providers.append(
                SdskvProvider(
                    mi,
                    PID_SDSKV,
                    backend=backend,
                    n_databases=n_databases,
                    costs=sdskv_costs,
                )
            )
            service.info.append(
                _ServerInfo(addr=addr, node=node, n_databases=n_databases)
            )
            service.group.join(addr)
        service.total_databases = sum(s.n_databases for s in service.info)
        return service

    def locate(self, db_index: int) -> tuple[str, int]:
        """Map a global database index to (server addr, local db id)."""
        if not 0 <= db_index < self.total_databases:
            raise ValueError(f"database index {db_index} out of range")
        for info in self.info:
            if db_index < info.n_databases:
                return info.addr, db_index
            db_index -= info.n_databases
        raise AssertionError("unreachable")


class HEPnOSClient:
    """Client-side HEPnOS API (event storage path)."""

    def __init__(self, mi: MargoInstance, service: HEPnOSService):
        self.mi = mi
        self.service = service
        self.sdskv = SdskvClient(mi)
        #: RPC issue counter, for throughput reporting.
        self.rpcs_issued = 0

    def db_index_for(self, key: str) -> int:
        """The paper's hashing scheme: key hash modulo the total number
        of databases."""
        return _stable_hash(key) % self.service.total_databases

    def group_by_database(
        self, pairs: list[tuple[str, object]]
    ) -> dict[int, list[tuple[str, object]]]:
        groups: dict[int, list[tuple[str, object]]] = {}
        for key, value in pairs:
            groups.setdefault(self.db_index_for(key), []).append((key, value))
        return groups

    def put_packed_to(self, db_index: int, pairs: list) -> Generator:
        """One sdskv_put_packed to the database's owning server."""
        addr, local_db = self.service.locate(db_index)
        self.rpcs_issued += 1
        n = yield from self.sdskv.put_packed(addr, PID_SDSKV, local_db, pairs)
        return n

    def store_event(self, key: str, value: object) -> Generator:
        n = yield from self.put_packed_to(self.db_index_for(key), [(key, value)])
        return n

    def load_event(self, key: str) -> Generator:
        addr, local_db = self.service.locate(self.db_index_for(key))
        value = yield from self.sdskv.get(addr, PID_SDSKV, local_db, key)
        return value
