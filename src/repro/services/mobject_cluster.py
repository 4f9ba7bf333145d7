"""Multi-node Mobject: object placement over an SSG group.

Production Mobject shards objects across provider nodes; clients place
each object by hashing its id over the group membership (consistent
key-based member selection).  :class:`MobjectCluster` deploys N provider
nodes and :class:`MobjectClusterClient` routes every RADOS-subset op to
the owning node -- composing Mobject, SSG, and the Margo substrate.
"""

from __future__ import annotations

from typing import Generator

from ..margo import MargoInstance
from ..ssg import SSGGroup
from .mobject import MobjectClient, MobjectProviderNode

__all__ = ["MobjectCluster", "MobjectClusterClient"]


class MobjectCluster:
    """N Mobject provider nodes joined into one SSG group."""

    def __init__(self) -> None:
        self.nodes: list[MobjectProviderNode] = []
        self.group = SSGGroup("mobject")

    @classmethod
    def deploy(
        cls,
        cluster,
        *,
        n_provider_nodes: int,
        n_handler_es: int = 4,
        addr_prefix: str = "mobject",
        node_prefix: str = "mnode",
    ) -> "MobjectCluster":
        """Create the provider-node processes on ``cluster`` (a
        :class:`~repro.cluster.Cluster`)."""
        if n_provider_nodes < 1:
            raise ValueError("need at least one provider node")
        out = cls()
        for i in range(n_provider_nodes):
            mi = cluster.process(
                f"{addr_prefix}{i}",
                f"{node_prefix}{i}",
                n_handler_es=n_handler_es,
            )
            node = MobjectProviderNode(mi)
            out.nodes.append(node)
            out.group.join(node.addr)
        return out

    @property
    def size(self) -> int:
        return self.group.size

    def owner_of(self, oid: str) -> str:
        return self.group.member_for_key(oid)


class MobjectClusterClient:
    """Placement-aware client: routes each object to its owner node."""

    def __init__(self, mi: MargoInstance, cluster: MobjectCluster):
        self.mi = mi
        self.cluster = cluster
        self._client = MobjectClient(mi)

    def write_op(self, oid: str, data: bytes, offset: int = 0) -> Generator:
        out = yield from self._client.write_op(
            self.cluster.owner_of(oid), oid, data, offset
        )
        return out

    def read_op(self, oid: str) -> Generator:
        out = yield from self._client.read_op(self.cluster.owner_of(oid), oid)
        return out

    def stat_op(self, oid: str) -> Generator:
        out = yield from self._client.stat_op(self.cluster.owner_of(oid), oid)
        return out

    def delete_op(self, oid: str) -> Generator:
        out = yield from self._client.delete_op(self.cluster.owner_of(oid), oid)
        return out
