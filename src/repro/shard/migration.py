"""REMI-style shard migration driven by SSG view changes and hot-spot
detectors.

The :class:`ShardManager` owns the authoritative ring + placement map.
On every membership view it rebuilds the map, diffs it against the old
one, and turns each move into a migration:

* **failover** — the source died with its data; a ULT on the
  destination's own process adopts an empty shard
  (:meth:`~repro.shard.service.ShardKvProvider.adopt_shard_ult`).  Lost
  bytes are lost, and accounted as such.
* **handoff** — the source is alive (a revived node re-entering the
  ring): the source fences the shard, then a migration ULT on the
  *source process* pushes the content to the destination over an RDMA
  bulk transfer (``shard_install``), exactly REMI's origin-push shape.
* **rebalance** — same wire protocol as a handoff, but requested by a
  monitor hot-spot detector instead of a membership change.

Detector callbacks must not mutate the workload mid-sample, so
rebalance requests are deferred onto the simulator queue
(``sim.call_at``) and executed by one-shot ULTs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from ..mercury import BulkRef, SizedBatch
from ..ssg import SSGView
from .placement import ShardMap, ShardMove
from .service import RPC_INSTALL, ShardKvProvider

__all__ = ["MigrationRecord", "ShardManager"]

#: Forward timeout for migration control RPCs; migrations run during
#: churn, so they must never hang on a dead peer.
_MIGRATE_TIMEOUT = 2e-3


@dataclass
class MigrationRecord:
    """One shard migration, from decision to completion."""

    shard: int
    src: str
    dst: str
    kind: str  # "failover" | "handoff" | "rebalance"
    epoch: int
    start: float
    end: Optional[float] = None
    n_keys: int = 0
    nbytes: int = 0
    ok: bool = False


class ShardManager:
    """Owns ring + map, reacts to views, executes migrations."""

    def __init__(
        self,
        cluster,
        *,
        providers: dict[str, ShardKvProvider],
        group,
        ring,
        shard_map: ShardMap,
        provider_id: int = 1,
    ):
        self.cluster = cluster
        self.sim = cluster.sim
        self.providers = providers
        self.group = group
        self.ring = ring
        self.map = shard_map
        self.provider_id = provider_id
        self.records: list[MigrationRecord] = []
        #: Shards with a migration currently in flight (duplicate guard).
        self._migrating: set[int] = set()
        #: Shards whose data was lost to a failover (conservation audits
        #: exempt exactly these).
        self.lost_shards: set[int] = set()

    # -- membership-driven migration ---------------------------------------

    def on_view(self, view: SSGView) -> None:
        """Rebuild placement for ``view`` and launch the shard moves."""
        members = set(view.members)
        for addr in sorted(self.providers):
            # Crashed processes lose their volatile shard state the
            # moment the membership service evicts them.
            if addr not in members and self._crashed(addr):
                self.providers[addr].wipe()
        for addr in [a for a in self.ring.nodes if a not in members]:
            self.ring.remove_node(addr)
        for addr in [a for a in view.members if a not in self.ring]:
            self.ring.add_node(addr)
        new_map = ShardMap.build(self.ring, self.map.n_shards, view.epoch)
        moves = self.map.diff(new_map)
        self.map = new_map
        for move in moves:
            src_alive = move.src in members and not self._crashed(move.src)
            kind = "handoff" if src_alive else "failover"
            self._launch(move, kind, view.epoch)

    def _crashed(self, addr: str) -> bool:
        mi = self.cluster.processes.get(addr)
        return mi is None or mi.crashed

    # -- detector-driven rebalance -----------------------------------------

    def request_rebalance(self, shard: int, dst: str) -> bool:
        """Move ``shard`` to ``dst`` (hot-spot spreading).  Safe to call
        from a monitor sample tick: execution is deferred onto the event
        queue.  Returns False if the move is a no-op or already runs."""
        src = self.current_owner(shard)
        if (
            src is None
            or src == dst
            or dst not in self.group
            or self._crashed(dst)
            or shard in self._migrating
        ):
            return False
        move = ShardMove(shard=shard, src=src, dst=dst)
        self.sim.call_at(
            self.sim.now, self._launch, move, "rebalance", self.group.epoch
        )
        self._migrating.add(shard)
        return True

    def current_owner(self, shard: int) -> Optional[str]:
        """The process actually storing ``shard`` right now (data truth,
        not map opinion)."""
        for addr in sorted(self.providers):
            if self._crashed(addr):
                continue
            if shard in self.providers[addr].shards:
                return addr
        return None

    # -- execution ----------------------------------------------------------

    def _launch(self, move: ShardMove, kind: str, epoch: int) -> None:
        record = MigrationRecord(
            shard=move.shard,
            src=move.src,
            dst=move.dst,
            kind=kind,
            epoch=epoch,
            start=self.sim.now,
        )
        self.records.append(record)
        self._migrating.add(move.shard)
        if kind == "failover":
            self.lost_shards.add(move.shard)
            admin = self.providers[move.dst].mi
            admin.client_ult(
                self._run_assign(admin, record), f"failover-s{move.shard}"
            )
        else:
            src_mi = self.providers[move.src].mi
            src_mi.client_ult(
                self._run_push(src_mi, record), f"migrate-s{move.shard}"
            )

    def _run_assign(self, mi, record: MigrationRecord) -> Generator:
        """Adopt an empty shard on the destination's own process — the
        previous owner is dead, there is nothing to pull."""
        try:
            record.ok = yield from self.providers[record.dst].adopt_shard_ult(
                record.shard
            )
        except Exception:
            record.ok = False
        record.end = self.sim.now
        self._migrating.discard(record.shard)

    def _run_push(self, mi, record: MigrationRecord) -> Generator:
        """Origin-push migration ULT: fence, scan, bulk-push, drop."""
        provider = self.providers[record.src]
        db = provider.fence_shard(record.shard, record.dst)
        if db is None:
            record.end = self.sim.now
            self._migrating.discard(record.shard)
            return
        try:
            pairs = yield from db.list_keyvals("", None)
            nbytes = db.bytes_stored
            out = yield from mi.forward(
                record.dst,
                RPC_INSTALL,
                {
                    "shard": record.shard,
                    "epoch": record.epoch,
                    "bulk": BulkRef(SizedBatch(pairs), nbytes),
                },
                self.provider_id,
                timeout=_MIGRATE_TIMEOUT,
            )
            record.ok = out["ret"] == 0
            record.n_keys = out.get("n_keys", len(pairs))
            record.nbytes = out.get("nbytes", nbytes)
            pvars = mi.hg.pvars
            pvars.add("shard_migrations_out")
            pvars.add("shard_migration_bytes_out", record.nbytes)
            mi.stats.add_memory(-nbytes)
        except Exception:
            # The push failed (destination died mid-transfer): restore
            # the shard locally so the data is not stranded in limbo.
            record.ok = False
            provider.shards[record.shard] = db
            provider.forwards.pop(record.shard, None)
        record.end = self.sim.now
        self._migrating.discard(record.shard)

    # -- reporting -----------------------------------------------------------

    def summary(self) -> dict:
        by_kind: dict[str, int] = {}
        for r in self.records:
            if r.ok:
                by_kind[r.kind] = by_kind.get(r.kind, 0) + 1
        return {
            "migrations": len(self.records),
            "completed": sum(1 for r in self.records if r.ok),
            "by_kind": dict(sorted(by_kind.items())),
            "moved_keys": sum(r.n_keys for r in self.records if r.ok),
            "moved_bytes": sum(r.nbytes for r in self.records if r.ok),
            "lost_shards": sorted(self.lost_shards),
        }
