"""Cluster-scale sharded-service experiment (mubench-style matrix).

The single-server harnesses answer micro questions; this one exercises
the *sharded* deployment path at fleet scale: a
:class:`~repro.shard.ShardedKVService` with dozens of server processes,
consistent-hash placement, heartbeat membership, and monitor-attached
hot-spot rebalancing, swept over the mubench-style matrix of

* **topology** — ``flat`` (one server per simulated node) vs ``packed``
  (four servers per node),
* **scale** — fleet sizes (32+ servers),
* **load** — keys issued per client.

Every cell runs the same script: clients spray keys through
:class:`~repro.shard.ShardRouter`, hammer one deliberately hot key until
the monitor's hot-spot detector fires a rebalance, then a fault-injected
crash kills one server mid-run — the membership service evicts it, the
SSG epoch advances, and failover migrations re-home its shards — and a
second write wave lands on the post-churn placement.  The cell then
audits conservation (:func:`~repro.shard.run_churn_audit`) and renders
the Perfetto timeline with the shard-migration lane.

Everything is deterministic: ``run_scale_experiment(seed=S).report()``
— including every artifact digest — is byte-identical across runs of
the same ``S``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..cluster import Cluster
from ..faults import CrashFault, FaultPlan
from ..margo import MargoError, RetryPolicy
from ..shard import (
    ChurnReport,
    ShardHotspotDetector,
    ShardedKVService,
    run_churn_audit,
)
from ..symbiosys import Stage
from ..symbiosys.export import digest, write_text
from ..symbiosys.monitor import MonitorConfig
from ..symbiosys.perfetto import chrome_trace_json

__all__ = [
    "ScaleCell",
    "ScaleCellResult",
    "ScaleExperimentResult",
    "run_scale_cell",
    "run_scale_experiment",
    "smoke_cell",
]

#: Topology axis: servers per simulated node.
TOPOLOGIES = {"flat": 1, "packed": 4}

_CRASH_AT = 0.8e-3
_POST_WAVE_AT = 2.0e-3
_QUIESCE = 2e-3


def _scale_retry() -> RetryPolicy:
    """Client policy sized to ride out the mid-run crash."""
    return RetryPolicy(
        max_attempts=4,
        timeout=0.5e-3,
        backoff=0.1e-3,
        backoff_factor=2.0,
        max_backoff=1e-3,
    )


@dataclass(frozen=True)
class ScaleCell:
    """One cell of the topology x scale x load matrix."""

    topology: str
    n_servers: int
    n_clients: int
    keys_per_client: int

    @property
    def name(self) -> str:
        return (
            f"{self.topology}-{self.n_servers}s"
            f"-{self.n_clients}c-{self.keys_per_client}k"
        )

    @property
    def servers_per_node(self) -> int:
        return TOPOLOGIES[self.topology]


def smoke_cell() -> ScaleCell:
    """The CI smoke shape: one >= 32-server flat topology cell."""
    return ScaleCell(
        topology="flat", n_servers=32, n_clients=4, keys_per_client=25
    )


def default_matrix() -> list[ScaleCell]:
    """The full mubench-style sweep."""
    cells = []
    for topology in sorted(TOPOLOGIES):
        for n_servers in (32, 64):
            for keys in (25, 50):
                cells.append(
                    ScaleCell(
                        topology=topology,
                        n_servers=n_servers,
                        n_clients=4,
                        keys_per_client=keys,
                    )
                )
    return cells


@dataclass
class ScaleCellResult:
    """One sharded cell: churn outcome, telemetry, and artifacts."""

    cell: ScaleCell
    seed: int
    victim: str
    makespan: float
    epoch: int
    n_shards: int
    issued: int
    acked: int
    failed: int
    failovers: int
    handoffs: int
    rebalances: int
    redirects: int
    lost_shards: int
    total_items: int
    bytes_stored: int
    audit: ChurnReport = field(default=None)  # type: ignore[assignment]
    membership_events: list[tuple] = field(default_factory=list)
    perfetto_json: str = ""

    def digests(self) -> dict[str, str]:
        return {"perfetto": digest(self.perfetto_json)}

    def check_invariants(self) -> None:
        """The acceptance gate: the death produced a view change and a
        completed, exported migration, and nothing was silently lost."""
        if self.epoch < 1:
            raise AssertionError("no SSG view change recorded")
        if self.failovers < 1:
            raise AssertionError("node death produced no failover migration")
        if self.rebalances < 1:
            raise AssertionError("hot-spot detector fired no rebalance")
        if not self.audit.ok:
            raise AssertionError(
                f"churn audit failed: {self.audit.as_dict()}"
            )
        if '"name": "shard migrations"' not in self.perfetto_json:
            raise AssertionError("Perfetto export lacks the migration lane")

    def row(self) -> dict:
        return {
            "cell": self.cell.name,
            "epoch": self.epoch,
            "acked": f"{self.acked}/{self.issued}",
            "failover": self.failovers,
            "handoff": self.handoffs,
            "rebalance": self.rebalances,
            "redirects": self.redirects,
            "lost": self.lost_shards,
            "items": self.total_items,
            "audit": "ok" if self.audit.ok else "FAIL",
        }


@dataclass
class ScaleExperimentResult:
    """The swept matrix plus per-cell artifacts."""

    seed: int
    cells: list[ScaleCellResult] = field(default_factory=list)

    def check_invariants(self) -> None:
        for cell in self.cells:
            cell.check_invariants()

    def write_artifacts(self, out_dir) -> list[str]:
        import os

        os.makedirs(out_dir, exist_ok=True)
        paths = []
        for result in self.cells:
            path = os.path.join(
                out_dir, f"scale-{result.cell.name}.perfetto.json"
            )
            write_text(path, result.perfetto_json)
            paths.append(path)
        return paths

    def report(self) -> str:
        """Deterministic plain-text report (byte-identical per seed)."""
        from .reporting import ascii_table

        lines = [
            f"sharded scale matrix (seed={self.seed}, "
            f"{len(self.cells)} cells)",
            ascii_table([r.row() for r in self.cells]),
        ]
        for result in self.cells:
            a = result.audit
            lines.append(
                f"  {result.cell.name}: victim={result.victim} "
                f"makespan={result.makespan * 1e3:.6f} ms "
                f"shards={result.n_shards} "
                f"bytes={result.bytes_stored} "
                f"lost_allowed={a.lost_allowed} "
                f"migrated_bytes={a.migrated_bytes}"
            )
            for name, hexdigest in sorted(result.digests().items()):
                lines.append(f"    {name:<12} {hexdigest}")
        return "\n".join(lines)


def run_scale_cell(
    cell: ScaleCell,
    *,
    seed: int = 0,
    store=None,
    time_limit: float = 600.0,
) -> ScaleCellResult:
    """Run one matrix cell end to end.

    The victim server is fixed (``kv001``) so the fault plan can be
    built before deployment; the hot key is chosen after deployment as
    the first candidate whose owner is a different, multi-shard server
    (so the detector has somewhere cooler to move it).
    """
    victim = "kv001"
    plan = FaultPlan(
        name=f"scale-kill-{victim}",
        process_faults=[CrashFault(addr=victim, at=_CRASH_AT)],
    )
    with Cluster(
        seed=seed,
        stage=Stage.FULL,
        fault_plan=plan,
        retry=_scale_retry(),
        monitoring=MonitorConfig(interval=50e-6),
        store=store,
        run_name=f"scale-{cell.name}-seed{seed}",
        run_tags={
            "experiment": "scale",
            "topology": cell.topology,
            "n_servers": str(cell.n_servers),
            "n_clients": str(cell.n_clients),
            "keys_per_client": str(cell.keys_per_client),
        },
    ) as cluster:
        service = ShardedKVService.deploy(
            cluster,
            cell.n_servers,
            servers_per_node=cell.servers_per_node,
        )
        detector = ShardHotspotDetector(
            cluster.monitor.config,
            manager=service.manager,
            providers=service.providers,
            min_window_ops=8,
            hot_fraction=0.4,
            cooldown=10.0,
        )
        cluster.monitor.detectors.append(detector)

        manager = service.manager
        hot_key = next(
            k
            for k in (f"hot{i}" for i in range(10_000))
            if (owner := manager.map.owner_of_key(k)) != victim
            and len(service.providers[owner].shards) >= 2
        )

        expected: dict[str, str] = {}
        acked: set[str] = set()
        pending = {"n": cell.n_clients}
        done = cluster.sim.event("scale-done")

        def body(c, router):
            def tracked_put(key, value):
                expected[key] = value
                try:
                    yield from router.put(key, value)
                    acked.add(key)
                except (MargoError, LookupError):
                    pass

            for i in range(cell.keys_per_client):
                yield from tracked_put(f"c{c:02d}k{i:04d}", f"v{c}.{i}" * 4)
            # Hammer one hot key so the detector fires a rebalance (all
            # clients write the same value, so the put is idempotent).
            yield from tracked_put(hot_key, "hot")
            for _ in range(60):
                try:
                    yield from router.get(hot_key)
                except (MargoError, LookupError):
                    pass
            # Outlive the crash, then write a post-churn wave.
            yield from router.mi.rt.sleep(
                max(1e-9, _POST_WAVE_AT - cluster.sim.now)
            )
            for i in range(cell.keys_per_client):
                yield from tracked_put(f"c{c:02d}p{i:04d}", f"w{c}.{i}" * 4)
            pending["n"] -= 1
            if pending["n"] == 0:
                done.succeed(cluster.sim.now)

        for c in range(cell.n_clients):
            mi = cluster.process(f"scli{c:02d}", f"cnode{c:02d}")
            mi.client_ult(body(c, service.make_router(mi)), name=f"load{c}")
        if not cluster.run_until_event(done, limit=time_limit):
            raise RuntimeError(f"scale cell {cell.name} did not finish")
        makespan = done.value
        cluster.run(until=cluster.sim.now + _QUIESCE)

    audit = run_churn_audit(service, expected, acked)
    records = [r for r in manager.records if r.ok]
    redirects = sum(
        int(service.providers[a].mi.hg.pvars.raw_value(
            "shard_redirects_total"
        ))
        for a in service.servers
    )
    return ScaleCellResult(
        cell=cell,
        seed=seed,
        victim=victim,
        makespan=makespan,
        epoch=service.group.epoch,
        n_shards=service.n_shards,
        issued=audit.issued,
        acked=audit.acked,
        failed=audit.failed,
        failovers=sum(1 for r in records if r.kind == "failover"),
        handoffs=sum(1 for r in records if r.kind == "handoff"),
        rebalances=sum(1 for r in records if r.kind == "rebalance"),
        redirects=redirects,
        lost_shards=len(manager.lost_shards),
        total_items=service.total_items(),
        bytes_stored=service.bytes_stored(),
        audit=audit,
        membership_events=list(service.membership.events),
        perfetto_json=chrome_trace_json(
            monitor=cluster.monitor,
            collector=cluster.collector,
            fault_events=cluster.fault_events(),
            migrations=manager.records,
        ),
    )


def run_scale_experiment(
    *,
    seed: int = 0,
    cells: Optional[list[ScaleCell]] = None,
    store=None,
    out_dir=None,
) -> ScaleExperimentResult:
    """Sweep the matrix (or the given cells) from one seed."""
    cells = cells if cells is not None else default_matrix()
    result = ScaleExperimentResult(seed=seed)
    for cell in cells:
        result.cells.append(run_scale_cell(cell, seed=seed, store=store))
    if out_dir is not None:
        result.write_artifacts(out_dir)
    return result
