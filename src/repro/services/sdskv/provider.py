"""SDSKV: RPC-based access to multiple key-value databases.

One provider hosts ``n_databases`` backend databases (Table IV's
"Databases" column counts these per provider).  RPCs address a database
by index.  ``sdskv_put_packed`` pulls the packed key/value blob through
Mercury's bulk interface before inserting, exactly like the production
microservice the HEPnOS data-loader drives.
"""

from __future__ import annotations

from typing import Generator, Optional

from ...argobots import Compute
from ...margo import MargoInstance
from ...mercury import BulkRef, HGHandle, SizedBatch
from .backends import BackendCosts, KVDatabase, make_database

__all__ = ["SdskvProvider", "SdskvClient"]

RPC_PUT = "sdskv_put_rpc"
RPC_GET = "sdskv_get_rpc"
RPC_EXISTS = "sdskv_exists_rpc"
RPC_PUT_PACKED = "sdskv_put_packed"
RPC_LIST_KEYVALS = "sdskv_list_keyvals_rpc"
_ALL_RPCS = (RPC_PUT, RPC_GET, RPC_EXISTS, RPC_PUT_PACKED, RPC_LIST_KEYVALS)


class SdskvProvider:
    """Server-side SDSKV provider."""

    #: CPU cost of unpacking the bulk-pulled key/value buffer before
    #: inserting -- proportional to the packed bytes, and crucially spent
    #: *outside* any backend lock (this is what saturates handler ESs and
    #: produces the Figure 9 handler-pool delays).
    unpack_fixed = 1.0e-6
    unpack_per_byte = 0.8e-9

    def __init__(
        self,
        mi: MargoInstance,
        provider_id: int = 0,
        *,
        backend: str = "map",
        n_databases: int = 1,
        costs: Optional[BackendCosts] = None,
    ):
        if n_databases < 1:
            raise ValueError("n_databases must be at least 1")
        self.mi = mi
        self.provider_id = provider_id
        self.backend = backend
        self.databases: list[KVDatabase] = [
            make_database(backend, mi.rt, db_id=i, costs=costs)
            for i in range(n_databases)
        ]
        mi.register(RPC_PUT, self._h_put, provider_id)
        mi.register(RPC_GET, self._h_get, provider_id)
        mi.register(RPC_EXISTS, self._h_exists, provider_id)
        mi.register(RPC_PUT_PACKED, self._h_put_packed, provider_id)
        mi.register(RPC_LIST_KEYVALS, self._h_list_keyvals, provider_id)

    # -- helpers --------------------------------------------------------------

    def _db(self, db_id: int) -> KVDatabase:
        if not 0 <= db_id < len(self.databases):
            raise ValueError(
                f"db_id {db_id} out of range (provider has "
                f"{len(self.databases)} databases)"
            )
        return self.databases[db_id]

    # -- handlers --------------------------------------------------------------

    def _h_put(self, mi: MargoInstance, handle: HGHandle) -> Generator:
        inp = yield from mi.get_input(handle)
        db = self._db(inp["db_id"])
        before = db.bytes_stored
        yield from db.put(inp["key"], inp["value"])
        mi.stats.add_memory(db.bytes_stored - before)
        yield from mi.respond(handle, {"ret": 0})

    def _h_get(self, mi: MargoInstance, handle: HGHandle) -> Generator:
        inp = yield from mi.get_input(handle)
        value = yield from self._db(inp["db_id"]).get(inp["key"])
        yield from mi.respond(
            handle, {"ret": 0 if value is not None else -1, "value": value}
        )

    def _h_exists(self, mi: MargoInstance, handle: HGHandle) -> Generator:
        inp = yield from mi.get_input(handle)
        found = yield from self._db(inp["db_id"]).exists(inp["key"])
        yield from mi.respond(handle, {"ret": 0, "exists": found})

    def _h_put_packed(self, mi: MargoInstance, handle: HGHandle) -> Generator:
        inp = yield from mi.get_input(handle)
        bulk: BulkRef = inp["bulk"]
        # Pull the packed key/value content from the origin (Figure 2's
        # bulk transfer step), unpack it, then insert.
        yield from mi.bulk_transfer(handle, bulk.nbytes)
        yield Compute(self.unpack_fixed + self.unpack_per_byte * bulk.nbytes)
        batch: SizedBatch = bulk.data
        db = self._db(inp["db_id"])
        before = db.bytes_stored
        yield from db.put_many(batch)
        mi.stats.add_memory(db.bytes_stored - before)
        yield from mi.respond(handle, {"ret": 0, "num_keys": len(batch.items)})

    def _h_list_keyvals(self, mi: MargoInstance, handle: HGHandle) -> Generator:
        inp = yield from mi.get_input(handle)
        items = yield from self._db(inp["db_id"]).list_keyvals(
            inp.get("prefix", ""), inp.get("max_items")
        )
        yield from mi.respond(
            handle, {"ret": 0, "items": BulkRef(items)}
        )


class SdskvClient:
    """Client-side convenience wrapper (registers the RPC names once)."""

    def __init__(self, mi: MargoInstance):
        self.mi = mi
        for rpc in _ALL_RPCS:
            mi.register(rpc)

    def put(self, target: str, provider_id: int, db_id: int, key, value) -> Generator:
        out = yield from self.mi.forward(
            target, RPC_PUT, {"db_id": db_id, "key": key, "value": value}, provider_id
        )
        return out["ret"]

    def get(self, target: str, provider_id: int, db_id: int, key) -> Generator:
        out = yield from self.mi.forward(
            target, RPC_GET, {"db_id": db_id, "key": key}, provider_id
        )
        return out["value"]

    def exists(self, target: str, provider_id: int, db_id: int, key) -> Generator:
        out = yield from self.mi.forward(
            target, RPC_EXISTS, {"db_id": db_id, "key": key}, provider_id
        )
        return out["exists"]

    def put_packed(
        self, target: str, provider_id: int, db_id: int, pairs: list
    ) -> Generator:
        out = yield from self.mi.forward(
            target,
            RPC_PUT_PACKED,
            {
                "db_id": db_id,
                "num_keys": len(pairs),
                "bulk": BulkRef(SizedBatch(pairs)),
            },
            provider_id,
        )
        return out["num_keys"]

    def list_keyvals(
        self,
        target: str,
        provider_id: int,
        db_id: int,
        prefix: str = "",
        max_items: Optional[int] = None,
    ) -> Generator:
        out = yield from self.mi.forward(
            target,
            RPC_LIST_KEYVALS,
            {"db_id": db_id, "prefix": prefix, "max_items": max_items},
            provider_id,
        )
        return out["items"].data
