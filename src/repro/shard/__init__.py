"""repro.shard: consistent-hash placement and shard migration.

Places SDSKV keys, BAKE regions, and HEPnOS datasets across dozens to
hundreds of simulated service processes:

- ``HashRing``: seeded, virtual-node-weighted consistent-hash ring
  (sha256 tokens — never Python ``hash()``, which is per-process
  randomized).
- ``ShardMap``: immutable shard -> owner snapshot derived from a ring;
  ``diff`` yields the shard moves between two snapshots.
- ``ShardKvProvider`` / ``ShardedKVService``: a sharded KV+BAKE service
  with ownership fencing (wrong-owner requests get a redirect, never a
  silent ack).
- ``ShardRouter``: client-side routing through an eventually consistent
  SSG view replica, following redirects during migration windows.
- ``ShardManager`` / ``MigrationRecord``: REMI-style shard migration
  ULTs driven by SSG view changes (failover) and by monitor hot-spot
  detectors (rebalance).
- ``run_churn_audit``: conservation audit used by the churn fuzzer.

See docs/sharding.md for the protocol.
"""

from .ring import HashRing
from .placement import ShardMap, ShardMove
from .service import ShardKvProvider, ShardedKVService
from .router import ShardRouter
from .migration import MigrationRecord, ShardManager
from .balancer import ShardHotspotDetector
from .audit import ChurnReport, run_churn_audit

__all__ = [
    "HashRing",
    "ShardMap",
    "ShardMove",
    "ShardKvProvider",
    "ShardedKVService",
    "ShardRouter",
    "ShardManager",
    "MigrationRecord",
    "ShardHotspotDetector",
    "ChurnReport",
    "run_churn_audit",
]
