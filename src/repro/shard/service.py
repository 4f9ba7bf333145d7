"""Sharded KV service: per-shard databases with ownership fencing.

Every server process hosts one :class:`ShardKvProvider` holding the
shards the placement map assigns to it, each shard a full SDSKV ``map``
backend database.  Ownership is fenced by *data presence*: a request for a
shard the server does not hold is answered with ``ret == -2`` and a
redirect hint — never silently acked and never silently dropped — so a
put can only succeed on the process that actually stores the shard.
That makes the migration protocol safe without distributed locks: the
source fences (drops the shard, leaves a tombstone pointing at the
destination) *before* the data moves, and clients chase redirects
through the eventually-consistent window.

:class:`ShardedKVService` deploys a whole fleet on a
:class:`~repro.cluster.Cluster`: servers with KV + BAKE providers, an
authoritative SSG group with heartbeat failure detection
(:class:`~repro.ssg.MembershipService`), fabric-delayed view
propagation to every server and router, and a
:class:`~repro.shard.migration.ShardManager` that turns view changes
into REMI-style migration ULTs.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..argobots import Compute
from ..margo import MargoInstance
from ..mercury import BulkRef, HGHandle, SizedBatch
from ..mercury.pvar import PvarBinding, PvarClass, PvarDef, PvarTable
from ..services.bake import BakeProvider
from ..services.sdskv.backends import KVDatabase, make_database
from ..ssg import MembershipService, SSGGroup, ViewPropagator
from .placement import ShardMap
from .ring import HashRing

__all__ = ["ShardKvProvider", "ShardedKVService"]

RPC_PUT = "shard_put"
RPC_GET = "shard_get"
RPC_INSTALL = "shard_install"

#: Wrong-owner redirect: the caller must retry at ``owner`` (or refresh
#: its placement map when no hint is available yet).
RET_WRONG_OWNER = -2

#: The shard server's PVARs, shared by every :class:`ShardKvProvider`;
#: getters read the provider they are given.
_SHARD_PVARS = PvarTable((
    PvarDef(
        "shard_num_owned",
        PvarClass.LEVEL,
        PvarBinding.NO_OBJECT,
        "Shards currently stored on this process",
        getter=lambda p: len(p.shards),
    ),
    PvarDef(
        "ssg_view_epoch",
        PvarClass.LEVEL,
        PvarBinding.NO_OBJECT,
        "Epoch of the latest SSG view applied by this process",
        getter=lambda p: p.replica.epoch if p.replica else 0,
    ),
    PvarDef(
        "shard_ops_total",
        PvarClass.COUNTER,
        PvarBinding.NO_OBJECT,
        "Shard KV operations served by this process",
    ),
    PvarDef(
        "shard_redirects_total",
        PvarClass.COUNTER,
        PvarBinding.NO_OBJECT,
        "Wrong-owner requests answered with a redirect",
    ),
    PvarDef(
        "shard_migrations_in",
        PvarClass.COUNTER,
        PvarBinding.NO_OBJECT,
        "Shards installed by in-migration",
    ),
    PvarDef(
        "shard_migrations_out",
        PvarClass.COUNTER,
        PvarBinding.NO_OBJECT,
        "Shards handed off by out-migration",
    ),
    PvarDef(
        "shard_migration_bytes_in",
        PvarClass.COUNTER,
        PvarBinding.NO_OBJECT,
        "Bytes received through shard in-migrations",
    ),
    PvarDef(
        "shard_migration_bytes_out",
        PvarClass.COUNTER,
        PvarBinding.NO_OBJECT,
        "Bytes pushed through shard out-migrations",
    ),
))


class ShardKvProvider:
    """Server-side provider for the shards this process owns.

    ``shards`` maps shard index -> live backend database; ``forwards``
    holds tombstones (shard -> destination address) left behind by
    out-migrations so redirects point somewhere useful during the
    propagation window.
    """

    #: Unpacking cost of a bulk-pulled request (same model as SDSKV).
    unpack_fixed = 1.0e-6
    unpack_per_byte = 0.8e-9
    #: Cost of installing one migrated shard (REMI's per-file install).
    install_fixed = 1.5e-6
    install_per_byte = 0.15e-9

    def __init__(self, mi: MargoInstance, provider_id: int = 0):
        self.mi = mi
        self.provider_id = provider_id
        self.shards: dict[int, KVDatabase] = {}
        self.forwards: dict[int, str] = {}
        #: This server's eventually consistent SSG view replica (set by
        #: the deploying service; feeds the ``ssg_view_epoch`` PVAR).
        self.replica: Optional[SSGGroup] = None
        #: Operations served per owned shard (hot-spot detector feed).
        self.ops_by_shard: dict[int, int] = {}
        mi.register(RPC_PUT, self._h_put, provider_id)
        mi.register(RPC_GET, self._h_get, provider_id)
        mi.register(RPC_INSTALL, self._h_install, provider_id)
        mi.hg.pvars.define_table(_SHARD_PVARS, self)

    # -- local (construction / admin-side) bookkeeping ---------------------

    def adopt_shard(self, shard: int) -> KVDatabase:
        """Create an empty shard database here (initial placement)."""
        if shard in self.shards:
            raise ValueError(f"shard {shard} already on {self.mi.addr}")
        db = make_database("map", self.mi.rt, db_id=shard)
        self.shards[shard] = db
        self.forwards.pop(shard, None)
        return db

    def adopt_shard_ult(self, shard: int) -> Generator:
        """Failover adoption as a ULT on this process: start serving an
        empty shard whose data died with its previous owner.  Idempotent
        (a racing ``shard_install`` wins)."""
        yield Compute(self.install_fixed)
        if shard not in self.shards:
            self.shards[shard] = make_database("map", self.mi.rt, db_id=shard)
            self.forwards.pop(shard, None)
            self.mi.hg.pvars.add("shard_migrations_in")
        return True

    def fence_shard(self, shard: int, dst: str) -> Optional[KVDatabase]:
        """Atomically stop serving ``shard`` and leave a tombstone
        pointing at ``dst``.  Returns the fenced database (None if the
        shard is not here).  Fencing happens *before* the data moves, so
        a put can never land on a copy about to be dropped."""
        db = self.shards.pop(shard, None)
        if db is not None:
            self.forwards[shard] = dst
        return db

    def wipe(self) -> None:
        """Model volatile-memory loss on a crash: every shard database
        and tombstone this process held is gone.  Called by the shard
        manager when the membership service evicts the process, so a
        later revival re-enters the ring empty instead of serving stale
        pre-crash data (which would create a second owner)."""
        self.shards.clear()
        self.forwards.clear()

    @property
    def bytes_stored(self) -> int:
        return sum(db.bytes_stored for db in self.shards.values())

    @property
    def total_items(self) -> int:
        return sum(len(db) for db in self.shards.values())

    def _count_op(self, shard: int) -> None:
        self.ops_by_shard[shard] = self.ops_by_shard.get(shard, 0) + 1
        self.mi.hg.pvars.add("shard_ops_total")

    def _redirect(self, shard: int) -> dict:
        self.mi.hg.pvars.add("shard_redirects_total")
        return {"ret": RET_WRONG_OWNER, "owner": self.forwards.get(shard)}

    # -- handlers ----------------------------------------------------------

    def _h_put(self, mi: MargoInstance, handle: HGHandle) -> Generator:
        inp = yield from mi.get_input(handle)
        shard = inp["shard"]
        db = self.shards.get(shard)
        if db is None:
            yield from mi.respond(handle, self._redirect(shard))
            return
        before = db.bytes_stored
        yield from db.put(inp["key"], inp["value"])
        mi.stats.add_memory(db.bytes_stored - before)
        self._count_op(shard)
        yield from mi.respond(handle, {"ret": 0})

    def _h_get(self, mi: MargoInstance, handle: HGHandle) -> Generator:
        inp = yield from mi.get_input(handle)
        shard = inp["shard"]
        db = self.shards.get(shard)
        if db is None:
            yield from mi.respond(handle, self._redirect(shard))
            return
        value = yield from db.get(inp["key"])
        self._count_op(shard)
        yield from mi.respond(
            handle, {"ret": 0 if value is not None else -1, "value": value}
        )

    def _h_install(self, mi: MargoInstance, handle: HGHandle) -> Generator:
        """In-migration: pull the shard content from the origin (RDMA
        bulk), install it, and start serving the shard."""
        inp = yield from mi.get_input(handle)
        shard = inp["shard"]
        bulk: BulkRef = inp["bulk"]
        yield from mi.bulk_transfer(handle, bulk.nbytes)
        yield Compute(self.unpack_fixed + self.unpack_per_byte * bulk.nbytes)
        batch: SizedBatch = bulk.data
        db = self.shards.get(shard)
        if db is None:
            db = make_database("map", self.mi.rt, db_id=shard)
        yield Compute(self.install_fixed + self.install_per_byte * bulk.nbytes)
        before = db.bytes_stored
        yield from db.put_many(batch)
        installed = db.bytes_stored - before
        # Serve only after the data is fully installed.
        self.shards[shard] = db
        self.forwards.pop(shard, None)
        mi.stats.add_memory(installed)
        pvars = mi.hg.pvars
        pvars.add("shard_migrations_in")
        pvars.add("shard_migration_bytes_in", installed)
        yield from mi.respond(
            handle, {"ret": 0, "n_keys": len(batch.items), "nbytes": installed}
        )


class ShardedKVService:
    """A sharded KV + BAKE fleet deployed on a Cluster.

    Use :meth:`deploy`; the instance exposes the authoritative SSG
    group, the per-server providers, the view propagator, and the
    :class:`~repro.shard.migration.ShardManager` driving migrations.
    """

    PID_KV = 1
    PID_BAKE = 2
    #: Virtual nodes per server on the placement ring.
    VNODES = 32

    def __init__(
        self,
        cluster,
        *,
        servers: list[str],
        n_shards: int,
        providers: dict[str, ShardKvProvider],
        bake_providers: dict[str, BakeProvider],
        group: SSGGroup,
        propagator: ViewPropagator,
        membership: MembershipService,
        manager,
    ):
        self.cluster = cluster
        self.servers = servers
        self.n_shards = n_shards
        self.providers = providers
        self.bake_providers = bake_providers
        self.group = group
        self.propagator = propagator
        self.membership = membership
        self.manager = manager

    @classmethod
    def deploy(
        cls,
        cluster,
        n_servers: int,
        *,
        servers_per_node: int = 1,
        **process_kw,
    ) -> "ShardedKVService":
        """Create ``n_servers`` server processes (``servers_per_node``
        per simulated node — the topology axis), each with a KV and a
        BAKE provider, place ``2 * n_servers`` shards across them, and
        wire membership + migration."""
        if n_servers < 1:
            raise ValueError("n_servers must be >= 1")
        n_shards = 2 * n_servers
        servers = [f"kv{i:03d}" for i in range(n_servers)]
        providers: dict[str, ShardKvProvider] = {}
        bake_providers: dict[str, BakeProvider] = {}
        for i, addr in enumerate(servers):
            node = f"snode{i // max(1, servers_per_node):03d}"
            mi = cluster.process(addr, node, **process_kw)
            providers[addr] = ShardKvProvider(mi, cls.PID_KV)
            bake_providers[addr] = BakeProvider(mi, cls.PID_BAKE)

        group = SSGGroup("shard-kv", servers)
        propagator = ViewPropagator(cluster.sim)
        for addr in servers:
            replica = group.replica()
            providers[addr].replica = replica
            propagator.register(replica)
        membership = MembershipService(
            cluster.sim, group, cluster.processes, propagator=propagator
        )

        from .migration import ShardManager

        ring = HashRing(seed=cluster.seed, vnodes=cls.VNODES)
        ring.replace(servers)
        shard_map = ShardMap.build(ring, n_shards, version=group.epoch)
        for shard, owner in enumerate(shard_map.owners):
            providers[owner].adopt_shard(shard)

        manager = ShardManager(
            cluster,
            providers=providers,
            group=group,
            ring=ring,
            shard_map=shard_map,
            provider_id=cls.PID_KV,
        )
        membership.on_view(manager.on_view)
        membership.start()
        cluster.add_shutdown_hook(membership.stop)

        return cls(
            cluster,
            servers=servers,
            n_shards=n_shards,
            providers=providers,
            bake_providers=bake_providers,
            group=group,
            propagator=propagator,
            membership=membership,
            manager=manager,
        )

    def make_router(self, mi: MargoInstance):
        """Client-side router bound to ``mi`` with its own view replica,
        seeded with the manager's current placement map (the router only
        builds a ring of its own once the replica's epoch moves)."""
        from .router import ShardRouter

        replica = self.group.replica()
        self.propagator.register(replica)
        return ShardRouter(
            mi,
            replica=replica,
            n_shards=self.n_shards,
            shard_map=self.manager.map,
            placement_seed=self.cluster.seed,
            vnodes=self.manager.ring.vnodes,
            provider_id=self.PID_KV,
            bake_provider_id=self.PID_BAKE,
        )

    # -- fleet-wide accounting (audits / reports) --------------------------

    def total_items(self) -> int:
        return sum(p.total_items for p in self.providers.values())

    def bytes_stored(self) -> int:
        return sum(p.bytes_stored for p in self.providers.values())

    def shard_owner(self, shard: int) -> Optional[str]:
        for addr in self.servers:
            if self.providers[addr].mi.crashed:
                continue
            if shard in self.providers[addr].shards:
                return addr
        return None
