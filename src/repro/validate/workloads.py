"""Canonical validated workloads for the fuzz runner and golden corpus.

``run_workload`` builds a monitored, invariant-checked
:class:`~repro.cluster.Cluster`, drives one of a small set of named
workloads at a given ``scale``, and returns a :class:`RunArtifacts` with
the rendered exports (Perfetto timeline, Prometheus snapshot, CSV
time-series, profile summary) plus the sha256 digests the determinism
cross-check compares.  Everything is a pure function of
``(workload, seed, preset, scale, plan)``.  It is the only way the
validation tooling builds a run: the fuzzer and the golden corpus both
call it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..cluster import Cluster
from ..faults import FaultPlan
from ..margo import MargoError, RetryPolicy
from ..mercury import SizedBatch
from ..sim import SimEvent
from ..symbiosys import Stage
from ..symbiosys.analysis import profile_summary
from ..symbiosys.export import digest, series_to_csv, to_prometheus
from ..symbiosys.monitor import MonitorConfig
from ..symbiosys.perfetto import chrome_trace_json
from .invariants import InvariantViolation, ValidationConfig

if TYPE_CHECKING:  # pragma: no cover
    from ..argobots import ULT

__all__ = [
    "RunArtifacts",
    "WORKLOAD_SERVERS",
    "WORKLOADS",
    "WorkloadHang",
    "run_workload",
]

#: Server addresses each workload deploys -- the fuzzer aims process
#: faults at these.
WORKLOAD_SERVERS = {
    "echo": ("echo-svr",),
    "sonata": ("sonata-svr",),
    "churn": tuple(f"kv{i:03d}" for i in range(8)),
    "sdskv": ("sdskv-svr",),
    "bake": ("bake-svr",),
    "hepnos": ("hepnos0", "hepnos1"),
    "sharded": tuple(f"kv{i:03d}" for i in range(32)),
}

#: Presets by short name (resolved lazily; experiments imports services).
_PRESETS = ("fast", "theta")

#: Keys each churn client writes per wave.
_CHURN_KEYS = 15


class WorkloadHang(RuntimeError):
    """The workload did not reach its completion predicate in time."""


@dataclass
class RunArtifacts:
    """One validated run plus its rendered, digestible exports."""

    workload: str
    seed: int
    preset: str
    scale: int
    makespan: float
    rpcs_ok: int
    rpcs_failed: int
    leaked_events: int
    violations: list[InvariantViolation] = field(default_factory=list)
    prometheus_text: str = ""
    series_csv: str = ""
    perfetto_json: str = ""
    profile_text: str = ""
    #: Churn runs only: the conservation audit, membership events,
    #: final epoch and migration summary.
    churn: Optional[dict] = None

    def digests(self) -> dict[str, str]:
        """sha256 prefixes of every export -- the determinism probe."""
        digests = {
            "prometheus": digest(self.prometheus_text),
            "series_csv": digest(self.series_csv),
            "perfetto": digest(self.perfetto_json),
            "profile": digest(self.profile_text),
        }
        if self.churn is not None:
            digests["churn"] = digest(json.dumps(self.churn, sort_keys=True))
        return digests

    def summary(self) -> str:
        """Deterministic plain-text run card (golden-corpus diff base)."""
        lines = [
            f"workload {self.workload} seed={self.seed} "
            f"preset={self.preset} scale={self.scale}",
            f"  makespan: {self.makespan * 1e3:.6f} ms",
            f"  rpcs: {self.rpcs_ok} ok, {self.rpcs_failed} failed",
            f"  leaked events: {self.leaked_events}",
            f"  violations: {len(self.violations)}",
        ]
        for name, hexdigest in sorted(self.digests().items()):
            lines.append(f"  {name:<12} {hexdigest}")
        return "\n".join(lines)


def _resolve_preset(name: str):
    from ..experiments.presets import FAST_TEST, THETA_KNL

    if name == "fast":
        return FAST_TEST
    if name == "theta":
        return THETA_KNL
    raise ValueError(f"unknown preset {name!r} (expected one of {_PRESETS})")


def _default_retry() -> RetryPolicy:
    # Sized for the fuzzer's fault windows: short per-attempt deadlines
    # so crashed servers turn into errors, not hangs.
    return RetryPolicy(
        max_attempts=4,
        timeout=0.5e-3,
        backoff=0.1e-3,
        backoff_factor=2.0,
        max_backoff=1e-3,
    )


def _tally(outcome: dict, op, expect=None):
    """Run one client op and count it: failed on an RPC or lookup error
    or a read-back other than ``expect``, ok otherwise.  Returns
    ``(ok, result)``."""
    try:
        result = yield from op
    except (MargoError, LookupError):
        outcome["failed"] += 1
        return False, None
    ok = expect is None or result == expect
    outcome["ok" if ok else "failed"] += 1
    return ok, result


def _echo_handler(mi, handle):
    inp = yield from mi.get_input(handle)
    yield from mi.respond(handle, {"echo": len(inp["data"])})


def _run_echo(cluster: Cluster, scale: int, outcome: dict, done: SimEvent) -> "ULT":
    """``scale`` clients, four RPCs each; one payload overflows the eager
    buffer to exercise the internal-RDMA path."""
    (server_addr,) = WORKLOAD_SERVERS["echo"]
    server = cluster.process(server_addr, "nodeS", n_handler_es=2)
    server.register("echo", _echo_handler)
    eager = server.hg.config.eager_size
    payload_sizes = (64, 512, eager + 256, 2048)
    pending = {"n": scale}

    for i in range(scale):
        client = cluster.process(f"echo-cli{i}", f"nodeC{i}")
        client.register("echo")

        def body(mi=client):
            for size in payload_sizes:
                yield from _tally(
                    outcome,
                    mi.forward(server_addr, "echo", {"data": b"x" * size}),
                )
            pending["n"] -= 1
            if pending["n"] == 0:
                done.succeed(cluster.sim.now)

        load = client.client_ult(body(), name=f"echo-load{i}")
    return load


def _run_sonata(cluster: Cluster, scale: int, outcome: dict, done: SimEvent) -> "ULT":
    """One Sonata provider; a client stores ``scale`` batches and fetches
    the first record of each back."""
    from ..services.sonata import SonataClient, SonataProvider

    (server_addr,) = WORKLOAD_SERVERS["sonata"]
    provider_id = 1
    server = cluster.process(server_addr, "nodeS", n_handler_es=2)
    SonataProvider(server, provider_id)
    client_mi = cluster.process("sonata-cli", "nodeC")
    client = SonataClient(client_mi)

    def body():
        yield from _tally(
            outcome, client.create_database(server_addr, provider_id, "col")
        )
        for batch in range(scale):
            records = SizedBatch(
                {"batch": batch, "i": i, "value": f"r{batch}-{i}"}
                for i in range(10)
            )
            yield from _tally(
                outcome,
                client.store_multi(
                    server_addr, provider_id, "col", records, batch_size=10
                ),
            )
        done.succeed(cluster.sim.now)

    return client_mi.client_ult(body(), name="sonata-load")


def _run_sdskv(cluster: Cluster, scale: int, outcome: dict, done: SimEvent) -> "ULT":
    """One SDSKV provider with two databases; a client puts ``8 * scale``
    keys across them and reads each back."""
    from ..services.sdskv import SdskvClient, SdskvProvider

    (server_addr,) = WORKLOAD_SERVERS["sdskv"]
    server = cluster.process(server_addr, "nodeS", n_handler_es=2)
    SdskvProvider(server, 0, n_databases=2)
    client_mi = cluster.process("sdskv-cli", "nodeC")
    client = SdskvClient(client_mi)
    n_keys = 8 * scale

    def body():
        for i in range(n_keys):
            yield from _tally(
                outcome, client.put(server_addr, 0, i % 2, f"k{i}", f"v{i}")
            )
        for i in range(n_keys):
            yield from _tally(
                outcome,
                client.get(server_addr, 0, i % 2, f"k{i}"),
                expect=f"v{i}",
            )
        done.succeed(cluster.sim.now)

    return client_mi.client_ult(body(), name="golden-sdskv")


def _run_bake(cluster: Cluster, scale: int, outcome: dict, done: SimEvent) -> "ULT":
    """One BAKE provider; a client writes ``4 * scale`` regions of
    growing size and reads each back."""
    from ..services.bake import BakeClient, BakeProvider

    (server_addr,) = WORKLOAD_SERVERS["bake"]
    server = cluster.process(server_addr, "nodeS", n_handler_es=2)
    BakeProvider(server, 0)
    client_mi = cluster.process("bake-cli", "nodeC")
    client = BakeClient(client_mi)

    def body():
        regions = []
        for i in range(4 * scale):
            data = bytes(512 * (i + 1))
            ok, rid = yield from _tally(
                outcome, client.create_write_persist(server_addr, 0, data)
            )
            if ok:
                regions.append((rid, data))
        for rid, data in regions:
            yield from _tally(
                outcome, client.read(server_addr, 0, rid), expect=data
            )
        done.succeed(cluster.sim.now)

    return client_mi.client_ult(body(), name="golden-bake")


def _run_hepnos(cluster: Cluster, scale: int, outcome: dict, done: SimEvent) -> "ULT":
    """Two HEPnOS servers (sdskv + bake providers each), driven through
    the real HEPnOS client hashing path: ``12 * scale`` events stored,
    every third loaded back."""
    from ..services.hepnos import HEPnOSClient, HEPnOSService

    service = HEPnOSService.deploy(
        cluster,
        n_servers=len(WORKLOAD_SERVERS["hepnos"]),
        servers_per_node=1,
        n_handler_es=2,
        n_databases=2,
    )
    client_mi = cluster.process("hepnos-cli", "cnode0")
    client = HEPnOSClient(client_mi, service)
    n_events = 12 * scale

    def body():
        for i in range(n_events):
            yield from _tally(
                outcome, client.store_event(f"run0/event{i}", {"e": i})
            )
        for i in range(0, n_events, 3):
            yield from _tally(
                outcome, client.load_event(f"run0/event{i}"), expect={"e": i}
            )
        done.succeed(cluster.sim.now)

    return client_mi.client_ult(body(), name="golden-hepnos")


def _run_sharded(cluster: Cluster, scale: int, outcome: dict, done: SimEvent) -> "ULT":
    """A 32-server sharded fleet driven through the consistent-hash
    router: ``24 * scale`` plain SDSKV keys plus ``12 * scale``
    HEPnOS-style dataset/run/event keys, all read back, so the sharded
    export surface (placement, PVARs, timeline) is pinned at cluster
    scale."""
    from ..shard import ShardedKVService

    service = ShardedKVService.deploy(
        cluster, len(WORKLOAD_SERVERS["sharded"])
    )
    client_mi = cluster.process("shard-cli", "cnode0")
    router = service.make_router(client_mi)
    n_keys, n_events = 24 * scale, 12 * scale

    def body():
        for i in range(n_keys):
            yield from _tally(outcome, router.put(f"k{i:03d}", f"v{i}"))
        for i in range(n_events):
            yield from _tally(
                outcome, router.put_event("golden.ds", 0, i, {"e": i})
            )
        for i in range(n_keys):
            yield from _tally(
                outcome, router.get(f"k{i:03d}"), expect=f"v{i}"
            )
        for i in range(0, n_events, 3):
            yield from _tally(
                outcome,
                router.get_event("golden.ds", 0, i),
                expect={"e": i},
            )
        done.succeed(cluster.sim.now)

    return client_mi.client_ult(body(), name="golden-sharded")


def _run_churn(cluster: Cluster, scale: int, outcome: dict, done: SimEvent) -> "ULT":
    """Membership churn over an eight-server sharded fleet.

    ``scale`` clients each write a pre-churn wave of keys, sleep across
    the fault window to 2 ms, then write a post-churn wave; the last
    client then quiesces migrations for 2 ms.  After teardown
    :func:`~repro.shard.run_churn_audit` checks that every issued
    request is accounted (acked, failed, or in a shard lost to a
    failover) and that migrations neither minted nor destroyed bytes.
    """
    from ..shard import ShardedKVService, run_churn_audit

    service = ShardedKVService.deploy(cluster, len(WORKLOAD_SERVERS["churn"]))
    expected: dict[str, str] = {}
    acked: set[str] = set()
    pending = {"n": scale}

    def put(router, key, value):
        expected[key] = value
        ok, _ = yield from _tally(outcome, router.put(key, value))
        if ok:
            acked.add(key)

    def body(c, router):
        for i in range(_CHURN_KEYS):
            yield from put(router, f"c{c}k{i}", f"v{c}.{i}" * 3)
        yield from router.mi.rt.sleep(max(1e-9, 2.0e-3 - cluster.sim.now))
        for i in range(_CHURN_KEYS):
            yield from put(router, f"c{c}p{i}", f"w{c}.{i}" * 3)
        pending["n"] -= 1
        if pending["n"] == 0:
            yield from router.mi.rt.sleep(2e-3)  # quiesce migrations
            done.succeed(cluster.sim.now)

    def audit() -> dict:
        return {
            "audit": run_churn_audit(service, expected, acked).as_dict(),
            "events": [list(e) for e in service.membership.events],
            "epoch": service.group.epoch,
            "migrations": service.manager.summary(),
        }

    outcome["audit"] = audit
    for c in range(scale):
        mi = cluster.process(f"churn-cli{c}", f"nodeC{c}")
        load = mi.client_ult(body(c, service.make_router(mi)), name=f"load{c}")
    return load


#: Each runner deploys its workload, counts every client op in
#: ``outcome["ok"]``/``outcome["failed"]``, fires ``done`` with the
#: simulated time the load finishes at, and returns its last load ULT.  A runner that
#: audits the finished run leaves the audit callable in
#: ``outcome["audit"]``; it is called after teardown.
WORKLOADS = {
    "echo": _run_echo,
    "sonata": _run_sonata,
    "churn": _run_churn,
    "sdskv": _run_sdskv,
    "bake": _run_bake,
    "hepnos": _run_hepnos,
    "sharded": _run_sharded,
}


def run_workload(
    workload: str,
    *,
    seed: int,
    preset: str = "fast",
    scale: int = 2,
    plan: Optional[FaultPlan] = None,
    time_limit: float = 5.0,
    strict: bool = False,
    _corrupt_sched: bool = False,
) -> RunArtifacts:
    """Run one named workload under monitoring + invariant checking.

    Raises :class:`WorkloadHang` if the load has not finished within
    ``time_limit`` simulated seconds (a failure condition the fuzzer
    shrinks like any other).  ``_corrupt_sched`` is a test hook: after
    the workload completes it re-queues the runner's last load ULT,
    terminated by then, deliberately breaking the scheduler state
    machine.
    """
    try:
        runner = WORKLOADS[workload]
    except KeyError:
        raise ValueError(
            f"unknown workload {workload!r} (expected one of "
            f"{sorted(WORKLOADS)})"
        ) from None
    if scale < 1:
        raise ValueError("scale must be at least 1")

    outcome = {"ok": 0, "failed": 0}
    with Cluster(
        seed=seed,
        stage=Stage.FULL,
        preset=_resolve_preset(preset),
        fault_plan=plan,
        retry=_default_retry() if plan is not None else None,
        monitoring=MonitorConfig(interval=50e-6),
        validate=ValidationConfig(strict=strict),
    ) as cluster:
        done = SimEvent(cluster.sim, f"{workload}-done")
        load = runner(cluster, scale, outcome, done)
        if not cluster.run_until_event(done, limit=time_limit):
            cluster.shutdown()
            raise WorkloadHang(
                f"workload {workload!r} (seed={seed}, scale={scale}) did "
                f"not finish within {time_limit}s of simulated time"
            )
        if _corrupt_sched:
            # The execution stream will dispatch the finished ULT again,
            # which the state-machine checker must flag.
            load.pool.push(load)
            cluster.sim.run(until=cluster.sim.now + 1e-3)

    monitor = cluster.monitor
    audit = outcome.get("audit")
    return RunArtifacts(
        workload=workload,
        seed=seed,
        preset=preset,
        scale=scale,
        makespan=done.value,
        rpcs_ok=outcome["ok"],
        rpcs_failed=outcome["failed"],
        leaked_events=cluster.leaked_events,
        violations=list(cluster.validator.violations),
        prometheus_text=to_prometheus(monitor),
        series_csv=series_to_csv(monitor.store),
        perfetto_json=chrome_trace_json(
            monitor=monitor,
            collector=cluster.collector,
            fault_events=cluster.fault_events(),
        ),
        profile_text=profile_summary(cluster.collector).render(),
        churn=None if audit is None else audit(),
    )
