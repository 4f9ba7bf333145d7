"""Client-side shard routing over an eventually consistent view.

A :class:`ShardRouter` holds its own SSG view replica (fed by the
service's :class:`~repro.ssg.ViewPropagator` after fabric delays) and
lazily rebuilds its ring + placement map whenever the replica's epoch
moves (until then it uses the map it was seeded with).
Because the replica lags the authoritative group, the router's map can
be stale; the server-side ownership fence turns every stale
route into an explicit ``ret == -2`` redirect, which the router chases
— first to the tombstone hint, then by re-deriving the owner from its
(possibly refreshed) map — with a capped retry budget.  A request
therefore either lands on the true owner or fails loudly; it is never
silently dropped.
"""

from __future__ import annotations

from typing import Generator

from ..margo import MargoInstance
from ..ssg import SSGGroup
from .placement import ShardMap
from .ring import HashRing
from .service import RET_WRONG_OWNER, RPC_GET, RPC_PUT

__all__ = ["ShardRouter"]


class ShardRouter:
    """Routes keys, BAKE regions, and HEPnOS-style dataset/event keys
    to their owning server."""

    #: Redirect-chase budget per request.  Each miss sleeps
    #: ``redirect_backoff`` before retrying, covering the fence window
    #: between a source dropping a shard and the destination install.
    max_redirects = 8
    redirect_backoff = 100e-6
    #: Per-forward timeout when the process has no retry policy.
    rpc_timeout = 2e-3

    def __init__(
        self,
        mi: MargoInstance,
        *,
        replica: SSGGroup,
        shard_map: ShardMap,
        n_shards: int,
        placement_seed: int = 0,
        vnodes: int = 32,
        provider_id: int = 1,
        bake_provider_id: int = 2,
    ):
        self.mi = mi
        self.replica = replica
        self.n_shards = n_shards
        self.provider_id = provider_id
        self.bake_provider_id = bake_provider_id
        self._ring = HashRing(seed=placement_seed, vnodes=vnodes)
        #: The seed map (the deploy-time placement) is used while its
        #: version matches the replica epoch.
        self._map = shard_map
        mi.register(RPC_PUT)
        mi.register(RPC_GET)
        #: Requests that exhausted the redirect budget (never silent).
        self.routing_failures = 0
        self.redirects_followed = 0

    # -- placement ---------------------------------------------------------

    def map(self) -> ShardMap:
        """Current placement map, rebuilt when the replica epoch moved."""
        if self._map.version != self.replica.epoch:
            self._ring.replace(self.replica.members)
            self._map = ShardMap.build(
                self._ring, self.n_shards, version=self.replica.epoch
            )
        return self._map

    def shard_of(self, key: str) -> int:
        return self.map().shard_of(key)

    def event_key(self, dataset: str, run: int, event: int) -> str:
        """HEPnOS-style fully qualified event key."""
        return f"{dataset}/{run}/{event}"

    # -- request routing ---------------------------------------------------

    def _route(self, rpc: str, key: str, payload: dict) -> Generator:
        """Forward ``rpc`` for ``key``, chasing wrong-owner redirects."""
        shard = self.shard_of(key)
        payload = dict(payload, shard=shard, key=key)
        target = self.map().owner_of_shard(shard)
        # With an instance retry policy, per-attempt deadlines come from
        # the policy; otherwise our own timeout keeps a dead owner from
        # hanging the request forever.
        timeout = self.rpc_timeout if self.mi.retry is None else None
        for attempt in range(self.max_redirects):
            out = yield from self.mi.forward(
                target,
                rpc,
                payload,
                self.provider_id,
                timeout=timeout,
            )
            if out["ret"] != RET_WRONG_OWNER:
                return out
            self.redirects_followed += 1
            hint = out.get("owner")
            if hint is not None:
                target = hint
            else:
                # No tombstone yet (install still in flight, or our map
                # is ahead/behind): wait out the window and re-derive.
                yield from self.mi.rt.sleep(self.redirect_backoff)
                target = self.map().owner_of_shard(shard)
        self.routing_failures += 1
        raise LookupError(
            f"no owner found for key {key!r} (shard {shard}) after "
            f"{self.max_redirects} redirects"
        )

    def put(self, key: str, value) -> Generator:
        out = yield from self._route(RPC_PUT, key, {"value": value})
        return out["ret"]

    def get(self, key: str) -> Generator:
        out = yield from self._route(RPC_GET, key, {})
        return out["value"]

    def put_event(self, dataset: str, run: int, event: int, blob) -> Generator:
        ret = yield from self.put(self.event_key(dataset, run, event), blob)
        return ret

    def get_event(self, dataset: str, run: int, event: int) -> Generator:
        value = yield from self.get(self.event_key(dataset, run, event))
        return value
