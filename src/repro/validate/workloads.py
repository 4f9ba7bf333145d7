"""Canonical validated workloads for the fuzz runner and golden corpus.

``run_workload`` builds a monitored, invariant-checked
:class:`~repro.cluster.Cluster`, drives one of a small set of named
workloads at a given ``scale``, and returns a :class:`RunArtifacts` with
the rendered exports (Perfetto timeline, Prometheus snapshot, CSV
time-series, profile summary) plus the sha256 digests the determinism
cross-check compares.  Everything is a pure function of
``(workload, seed, preset, scale, plan)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..cluster import Cluster
from ..faults import FaultPlan
from ..margo import MargoError, RetryPolicy
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
    "collect_artifacts",
    "run_workload",
]

#: Server addresses each workload deploys -- the fuzzer aims process
#: faults at these.
WORKLOAD_SERVERS = {
    "echo": ("echo-svr",),
    "sonata": ("sonata-svr",),
    "sharded": tuple(f"kv{i:03d}" for i in range(8)),
}

#: Presets by short name (resolved lazily; experiments imports services).
_PRESETS = ("fast", "theta")


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

    def digests(self) -> dict[str, str]:
        """sha256 prefixes of every export -- the determinism probe."""
        return {
            "prometheus": digest(self.prometheus_text),
            "series_csv": digest(self.series_csv),
            "perfetto": digest(self.perfetto_json),
            "profile": digest(self.profile_text),
        }

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


def collect_artifacts(
    cluster: Cluster,
    workload: str,
    *,
    seed: int,
    preset: str,
    scale: int,
    makespan: float,
    rpcs_ok: int,
    rpcs_failed: int,
) -> RunArtifacts:
    """Render a finished, monitored cluster's exports into a
    :class:`RunArtifacts`."""
    monitor = cluster.monitor
    return RunArtifacts(
        workload=workload,
        seed=seed,
        preset=preset,
        scale=scale,
        makespan=makespan,
        rpcs_ok=rpcs_ok,
        rpcs_failed=rpcs_failed,
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
    )


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


def _echo_handler(mi, handle):
    inp = yield from mi.get_input(handle)
    yield from mi.respond(handle, {"echo": len(inp["data"])})


def _run_echo(cluster: Cluster, scale: int, outcome: dict, done: dict) -> "ULT":
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

        def body(mi=None, idx=i):
            for size in payload_sizes:
                try:
                    yield from cluster[f"echo-cli{idx}"].forward(
                        server_addr, "echo", {"data": b"x" * size}
                    )
                    outcome["ok"] += 1
                except MargoError:
                    outcome["failed"] += 1
            pending["n"] -= 1
            if pending["n"] == 0:
                done["at"] = cluster.sim.now

        load = client.client_ult(body(), name=f"echo-load{i}")
    return load


def _run_sonata(cluster: Cluster, scale: int, outcome: dict, done: dict) -> "ULT":
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
        try:
            yield from client.create_database(server_addr, provider_id, "col")
            outcome["ok"] += 1
        except MargoError:
            outcome["failed"] += 1
        for batch in range(scale):
            records = [
                {"batch": batch, "i": i, "value": f"r{batch}-{i}"}
                for i in range(10)
            ]
            try:
                yield from client.store_multi(
                    server_addr, provider_id, "col", records, batch_size=10
                )
                outcome["ok"] += 1
            except MargoError:
                outcome["failed"] += 1
        done["at"] = cluster.sim.now

    return client_mi.client_ult(body(), name="sonata-load")


def _run_sharded(cluster: Cluster, scale: int, outcome: dict, done: dict) -> "ULT":
    """An eight-server sharded KV fleet; ``scale`` clients spray keys
    through consistent-hash routers and read them back.  Process faults
    aimed at any ``kv*`` server exercise membership churn, view
    propagation, and failover migration under the fuzzer's invariant
    and determinism cross-checks."""
    from ..shard import ShardedKVService

    service = ShardedKVService.deploy(
        cluster, len(WORKLOAD_SERVERS["sharded"])
    )
    pending = {"n": scale}

    for c in range(scale):
        mi = cluster.process(f"shard-cli{c}", f"nodeC{c}")
        router = service.make_router(mi)

        def body(router=router, idx=c):
            for i in range(12):
                try:
                    yield from router.put(f"c{idx}k{i}", f"v{idx}.{i}")
                    outcome["ok"] += 1
                except (MargoError, LookupError):
                    outcome["failed"] += 1
            for i in range(12):
                try:
                    yield from router.get(f"c{idx}k{i}")
                    outcome["ok"] += 1
                except (MargoError, LookupError):
                    outcome["failed"] += 1
            pending["n"] -= 1
            if pending["n"] == 0:
                done["at"] = cluster.sim.now

        load = mi.client_ult(body(), name=f"shard-load{c}")
    return load


#: Each runner deploys its workload and returns its last load ULT.
WORKLOADS = {
    "echo": _run_echo,
    "sonata": _run_sonata,
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

    Raises :class:`WorkloadHang` if the completion predicate is not
    reached within ``time_limit`` simulated seconds (a failure condition
    the fuzzer shrinks like any other).  ``_corrupt_sched`` is a test
    hook: after the workload completes it re-queues the runner's last
    load ULT, terminated by then, deliberately breaking the scheduler
    state machine.
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
    done: dict = {}
    with Cluster(
        seed=seed,
        stage=Stage.FULL,
        preset=_resolve_preset(preset),
        fault_plan=plan,
        retry=_default_retry() if plan is not None else None,
        monitoring=MonitorConfig(interval=50e-6),
        validate=ValidationConfig(strict=strict),
    ) as cluster:
        load = runner(cluster, scale, outcome, done)
        finished = cluster.sim.run_until(lambda: "at" in done, time_limit)
        if not finished:
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

    return collect_artifacts(
        cluster,
        workload,
        seed=seed,
        preset=preset,
        scale=scale,
        makespan=done["at"],
        rpcs_ok=outcome["ok"],
        rpcs_failed=outcome["failed"],
    )
