"""SDSKV key-value backend databases.

Three backends mirror the ones SDSKV exposes (``map``, ``leveldb``,
``bdb``).  All of them *really* store the key-value pairs (gets return
what puts wrote); they differ in cost model and concurrency:

* **map** -- a std::map-like in-memory store.  Cheap per item, but "not
  capable of parallel insertions": a single mutex is held for the whole
  insert batch.  Under bursty ``put_packed`` floods this serializes
  writers -- the Figure 10 mechanism.
* **leveldb** -- LSM-style store: pricier per item (memtable + WAL
  append) but writers do not serialize behind one lock.
* **bdb** -- B-tree with page locking: moderately priced, serialized
  like ``map`` but with coarser per-batch cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from ...argobots import AbtRuntime, Compute
from ...mercury import SizedBatch, estimate_size

__all__ = [
    "BackendCosts",
    "KVDatabase",
    "MapDatabase",
    "LevelDBDatabase",
    "BDBDatabase",
    "make_database",
    "BACKENDS",
]


#: Encoded size of a pair's container alone: a pair's size in a
#: :class:`~repro.mercury.SizedBatch` less this is its key's size plus
#: its value's.
_PAIR_OVERHEAD = estimate_size(())


@dataclass(frozen=True)
class BackendCosts:
    """Cost model of one backend type."""

    put_fixed: float  # per insert operation
    put_per_byte: float
    get_fixed: float
    get_per_byte: float
    scan_per_item: float  # list_keyvals iteration cost per stored item
    batch_fixed: float = 0.0  # once per put_many call


class KVDatabase:
    """Base: ordered in-memory KV store with a backend cost model."""

    name = "abstract"
    serialized_inserts = False

    def __init__(self, runtime: AbtRuntime, costs: BackendCosts, db_id: int = 0):
        self.runtime = runtime
        self.costs = costs
        self.db_id = db_id
        self._data: dict[str, object] = {}
        self._mutex = (
            runtime.mutex(f"{self.name}-db{db_id}")
            if self.serialized_inserts
            else None
        )
        #: Total bytes ever inserted (memory-gauge feed).
        self.bytes_stored = 0

    def __len__(self) -> int:
        return len(self._data)

    @property
    def insert_mutex_waiters_high_watermark(self) -> int:
        """Peak number of ULTs ever queued on the insert mutex (0 for
        backends with concurrent inserts)."""
        return (
            self._mutex.contention_high_watermark
            if self._mutex is not None
            else 0
        )

    # -- operations (generators: they consume simulated time) ----------------

    def put(self, key: str, value: object) -> Generator:
        yield from self.put_many(SizedBatch([(key, value)]))

    def put_many(self, batch: SizedBatch) -> Generator:
        """Insert a batch of (key, value) pairs, charging each the size
        the batch took when built.  Serialized backends hold their mutex
        for the whole batch, as one ``sdskv_put_packed`` does."""
        if self._mutex is not None:
            yield from self._mutex.lock()
        try:
            if self.costs.batch_fixed > 0:
                yield Compute(self.costs.batch_fixed)
            for (key, value), size in zip(batch.items, batch.sizes):
                nbytes = size - _PAIR_OVERHEAD
                yield Compute(
                    self.costs.put_fixed + self.costs.put_per_byte * nbytes
                )
                if key not in self._data:
                    self.bytes_stored += nbytes
                self._data[key] = value
        finally:
            if self._mutex is not None:
                self._mutex.unlock()

    def peek(self, key: str) -> Optional[object]:
        """Zero-cost out-of-band read for offline audits and tests —
        never use on a simulated code path (no backend cost charged)."""
        return self._data.get(key)

    def get(self, key: str) -> Generator:
        nbytes = estimate_size(key)
        value = self._data.get(key)
        if value is not None:
            nbytes += estimate_size(value)
        yield Compute(self.costs.get_fixed + self.costs.get_per_byte * nbytes)
        return value

    def exists(self, key: str) -> Generator:
        yield Compute(self.costs.get_fixed)
        return key in self._data

    def list_keyvals(
        self, prefix: str = "", max_items: Optional[int] = None
    ) -> Generator:
        """Prefix scan.  Cost scales with the number of *stored* items
        (full iteration), which is what makes listing dominate the
        ior+Mobject read profile (Figure 6)."""
        yield Compute(self.costs.scan_per_item * max(1, len(self._data)))
        out = []
        for key in sorted(self._data):
            if key.startswith(prefix):
                out.append((key, self._data[key]))
                if max_items is not None and len(out) >= max_items:
                    break
        return out


class MapDatabase(KVDatabase):
    name = "map"
    serialized_inserts = True

    DEFAULT_COSTS = BackendCosts(
        put_fixed=0.5e-6,
        put_per_byte=0.10e-9,
        get_fixed=0.4e-6,
        get_per_byte=0.05e-9,
        scan_per_item=0.05e-6,
    )


class LevelDBDatabase(KVDatabase):
    name = "leveldb"
    serialized_inserts = False

    DEFAULT_COSTS = BackendCosts(
        put_fixed=1.6e-6,
        put_per_byte=0.35e-9,
        get_fixed=1.2e-6,
        get_per_byte=0.12e-9,
        scan_per_item=0.08e-6,
        batch_fixed=2.0e-6,  # WAL sync per batch
    )


class BDBDatabase(KVDatabase):
    name = "bdb"
    serialized_inserts = True

    DEFAULT_COSTS = BackendCosts(
        put_fixed=1.0e-6,
        put_per_byte=0.20e-9,
        get_fixed=0.8e-6,
        get_per_byte=0.08e-9,
        scan_per_item=0.06e-6,
        batch_fixed=1.0e-6,
    )


BACKENDS: dict[str, type[KVDatabase]] = {
    "map": MapDatabase,
    "leveldb": LevelDBDatabase,
    "bdb": BDBDatabase,
}


def make_database(
    backend: str,
    runtime: AbtRuntime,
    db_id: int = 0,
    costs: Optional[BackendCosts] = None,
) -> KVDatabase:
    try:
        cls = BACKENDS[backend]
    except KeyError:
        raise ValueError(
            f"unknown SDSKV backend {backend!r}; choose from {sorted(BACKENDS)}"
        ) from None
    return cls(runtime, costs or cls.DEFAULT_COSTS, db_id=db_id)
