"""Sonata: remote JSON object storage with in-place queries.

Backed by an UnQLite-like embedded document collection.  Crucially for
the Figure 7 case study, documents travel **as RPC metadata** (not bulk):
large ``store_multi_json`` batches overflow Mercury's eager buffer and
exercise the internal-RDMA path, and deserialization is a visible
fraction of the target-side execution time.

Queries are a small Jx9-like filter language evaluated against the
stored documents -- real evaluation over real documents, with a per-
document scan cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from ..argobots import Compute
from ..margo import MargoInstance
from ..mercury import HGHandle, SizedBatch

__all__ = [
    "SonataCosts",
    "SonataProvider",
    "SonataClient",
    "evaluate_filter",
]

RPC_CREATE_DB = "sonata_create_database"
RPC_STORE_MULTI = "sonata_store_multi_json"
RPC_FILTER = "sonata_execute_jx9"
RPC_SIZE = "sonata_collection_size"
_ALL_RPCS = (
    RPC_CREATE_DB,
    RPC_STORE_MULTI,
    RPC_FILTER,
    RPC_SIZE,
)

_OPS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a is not None and b is not None and a < b,
    "<=": lambda a, b: a is not None and b is not None and a <= b,
    ">": lambda a, b: a is not None and b is not None and a > b,
    ">=": lambda a, b: a is not None and b is not None and a >= b,
    "contains": lambda a, b: b in a if a is not None else False,
}


def evaluate_filter(doc: dict, query: dict) -> bool:
    """Evaluate a Jx9-like filter: ``{"and": [...]}, {"or": [...]}``, or a
    leaf ``{"field": f, "op": o, "value": v}``."""
    if "and" in query:
        return all(evaluate_filter(doc, q) for q in query["and"])
    if "or" in query:
        return any(evaluate_filter(doc, q) for q in query["or"])
    try:
        op = _OPS[query["op"]]
    except KeyError:
        raise ValueError(f"unknown filter op {query.get('op')!r}") from None
    return op(doc.get(query["field"]), query["value"])


@dataclass(frozen=True)
class SonataCosts:
    """UnQLite-like engine cost model."""

    create_fixed: float = 2.0e-6
    store_fixed: float = 0.45e-6  # per document insert
    store_per_byte: float = 0.45e-9
    fetch_fixed: float = 0.7e-6
    scan_per_doc: float = 0.35e-6  # Jx9 VM per-document evaluation


class _Collection:
    """One UnQLite-backed document collection (ids are dense ints)."""

    def __init__(self, name: str):
        self.name = name
        self.docs: list[dict] = []

    def append(self, doc: dict) -> int:
        self.docs.append(doc)
        return len(self.docs) - 1


class SonataProvider:
    """Server-side Sonata provider."""

    def __init__(
        self,
        mi: MargoInstance,
        provider_id: int = 0,
        costs: Optional[SonataCosts] = None,
    ):
        self.mi = mi
        self.provider_id = provider_id
        self.costs = costs or SonataCosts()
        self.collections: dict[str, _Collection] = {}
        mi.register(RPC_CREATE_DB, self._h_create, provider_id)
        mi.register(RPC_STORE_MULTI, self._h_store_multi, provider_id)
        mi.register(RPC_FILTER, self._h_filter, provider_id)
        mi.register(RPC_SIZE, self._h_size, provider_id)

    def _collection(self, name: str) -> _Collection:
        try:
            return self.collections[name]
        except KeyError:
            raise ValueError(f"unknown Sonata collection {name!r}") from None

    # -- handlers ---------------------------------------------------------------

    def _h_create(self, mi: MargoInstance, handle: HGHandle) -> Generator:
        inp = yield from mi.get_input(handle)
        yield Compute(self.costs.create_fixed)
        name = inp["collection"]
        if name in self.collections:
            yield from mi.respond(handle, {"ret": -1, "error": "exists"})
            return
        self.collections[name] = _Collection(name)
        yield from mi.respond(handle, {"ret": 0})

    def _h_store_multi(self, mi: MargoInstance, handle: HGHandle) -> Generator:
        # The record array arrives as metadata; get_input charges the
        # deserialization that Figure 7 highlights.  Each document's
        # store cost uses the size the client's batch fixed when built.
        inp = yield from mi.get_input(handle)
        coll = self._collection(inp["collection"])
        batch = inp["records"]
        ids = []
        for doc, nbytes in zip(batch.items, batch.sizes):
            yield Compute(
                self.costs.store_fixed + self.costs.store_per_byte * nbytes
            )
            ids.append(coll.append(doc))
            mi.stats.add_memory(nbytes)
        yield from mi.respond(handle, {"ret": 0, "ids": ids})

    def _h_filter(self, mi: MargoInstance, handle: HGHandle) -> Generator:
        inp = yield from mi.get_input(handle)
        coll = self._collection(inp["collection"])
        yield Compute(self.costs.scan_per_doc * max(1, len(coll.docs)))
        matches = [
            doc for doc in coll.docs if evaluate_filter(doc, inp["query"])
        ]
        yield from mi.respond(handle, {"ret": 0, "records": matches})

    def _h_size(self, mi: MargoInstance, handle: HGHandle) -> Generator:
        inp = yield from mi.get_input(handle)
        coll = self._collection(inp["collection"])
        yield Compute(self.costs.fetch_fixed)
        yield from mi.respond(handle, {"ret": 0, "size": len(coll.docs)})


class SonataClient:
    """Client-side Sonata wrapper."""

    def __init__(self, mi: MargoInstance):
        self.mi = mi
        for rpc in _ALL_RPCS:
            mi.register(rpc)

    def create_database(
        self, target: str, provider_id: int, collection: str
    ) -> Generator:
        out = yield from self.mi.forward(
            target, RPC_CREATE_DB, {"collection": collection}, provider_id
        )
        return out["ret"]

    def store_multi(
        self,
        target: str,
        provider_id: int,
        collection: str,
        records: SizedBatch,
        batch_size: Optional[int] = None,
    ) -> Generator:
        """Store a record array in batches of ``batch_size`` (the Figure 7
        benchmark parameter).  Returns the ids of the stored records.

        ``records`` is a :class:`~repro.mercury.SizedBatch`, as a real
        client hands Mercury records it has already encoded: each RPC
        carries a slice of it, so storing sizes no record.  A generated
        array (``generate_json_records``) is built sized; wrap a
        hand-built list in ``SizedBatch(...)``, which sizes it once."""
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        batch_size = batch_size or len(records) or 1
        ids: list[int] = []
        for start in range(0, len(records), batch_size):
            out = yield from self.mi.forward(
                target,
                RPC_STORE_MULTI,
                {
                    "collection": collection,
                    "records": records[start : start + batch_size],
                },
                provider_id,
            )
            ids.extend(out["ids"])
        return ids

    def filter(
        self, target: str, provider_id: int, collection: str, query: dict
    ) -> Generator:
        out = yield from self.mi.forward(
            target,
            RPC_FILTER,
            {"collection": collection, "query": query},
            provider_id,
        )
        return out["records"]

    def size(self, target: str, provider_id: int, collection: str) -> Generator:
        out = yield from self.mi.forward(
            target, RPC_SIZE, {"collection": collection}, provider_id
        )
        return out["size"]
