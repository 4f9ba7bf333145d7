"""Immutable shard -> owner placement snapshots.

The keyspace is first folded onto a fixed number of *shards*
(``shard_of(key) = h64(key) % n_shards``); the ring then places each
shard on a node.  Fixing the shard count makes migration tractable —
membership changes move whole shards, never individual keys — and the
consistent ring keeps the number of moved shards near K/N on a single
node change.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ring import HashRing, h64

__all__ = ["ShardMap", "ShardMove", "shard_of"]


def shard_of(key: str, n_shards: int) -> int:
    return h64(key) % n_shards


@dataclass(frozen=True)
class ShardMove:
    """One shard changing owner between two placement versions."""

    shard: int
    src: str
    dst: str


@dataclass(frozen=True)
class ShardMap:
    """Placement snapshot: shard index -> owner address, at a version.

    ``version`` mirrors the SSG view epoch the map was derived from, so
    routers can tell which of two maps is newer.
    """

    version: int
    n_shards: int
    owners: tuple[str, ...]

    @classmethod
    def build(cls, ring: HashRing, n_shards: int, version: int = 0) -> "ShardMap":
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        owners = tuple(ring.node_for(f"shard:{i}") for i in range(n_shards))
        return cls(version=version, n_shards=n_shards, owners=owners)

    def shard_of(self, key: str) -> int:
        return shard_of(key, self.n_shards)

    def owner_of_shard(self, shard: int) -> str:
        return self.owners[shard]

    def owner_of_key(self, key: str) -> str:
        return self.owners[self.shard_of(key)]

    def diff(self, new: "ShardMap") -> list[ShardMove]:
        """Shard moves from ``self`` to ``new`` (sorted by shard)."""
        if new.n_shards != self.n_shards:
            raise ValueError("cannot diff maps with different shard counts")
        return [
            ShardMove(shard=i, src=a, dst=b)
            for i, (a, b) in enumerate(zip(self.owners, new.owners))
            if a != b
        ]
