"""HEPnOS data-loader experiment harness (Figures 9-12).

Deploys a Table IV configuration, runs the data-loader against synthetic
event files, and extracts every quantity the paper's HEPnOS case studies
plot: cumulative target-side RPC execution time with its component
breakdown (Fig 9), blocked-ULT samples versus request start time
(Fig 10), cumulative origin time with the unaccounted component
(Fig 11), and the ``num_ofi_events_read`` sample series (Fig 12).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..cluster import Cluster
from ..services.hepnos import DataLoader, DataLoaderConfig, HEPnOSService
from ..sim import all_of
from ..symbiosys import Stage, SymbiosysCollector
from ..symbiosys.analysis import (
    ProfileSummary,
    blocked_ult_samples,
    ofi_events_series,
    profile_summary,
)
from ..symbiosys.monitor import Monitor, MonitorConfig
from ..workloads import flatten_to_pairs, generate_event_files
from .configs import HEPnOSConfig
from .presets import THETA_KNL, Preset

__all__ = ["HEPnOSExperimentResult", "run_hepnos_experiment", "PUT_PACKED"]

PUT_PACKED = "sdskv_put_packed"

#: Target-side components stacked in Figure 9 (disjoint sub-intervals of
#: t4..t13 on the target).
TARGET_COMPONENTS = (
    "target_handler_time",
    "target_execution_time",
    "target_completion_callback_time",
)


@dataclass
class HEPnOSExperimentResult:
    config: HEPnOSConfig
    #: The deployment the run used (not shut down: see
    #: :func:`run_hepnos_experiment`).
    cluster: Cluster
    makespan: float
    events_stored: int
    rpcs_issued: int
    client_addrs: list[str]
    server_addrs: list[str]
    _summary: Optional[ProfileSummary] = field(default=None, repr=False)

    @property
    def collector(self) -> SymbiosysCollector:
        return self.cluster.collector

    @property
    def monitor(self) -> Optional[Monitor]:
        """Online telemetry monitor (when the run was monitored; else
        None)."""
        return self.cluster.monitor

    @property
    def summary(self) -> ProfileSummary:
        if self._summary is None:
            self._summary = profile_summary(self.collector)
        return self._summary

    def put_packed_row(self):
        return self.summary.row_for(PUT_PACKED)

    # -- Figure 9 quantities -----------------------------------------------------

    def target_breakdown(self) -> dict[str, float]:
        row = self.put_packed_row()
        return {c: row.breakdown.get(c, 0.0) for c in TARGET_COMPONENTS}

    @property
    def cumulative_target_time(self) -> float:
        return sum(self.target_breakdown().values())

    @property
    def handler_time_fraction(self) -> float:
        breakdown = self.target_breakdown()
        total = sum(breakdown.values())
        return breakdown["target_handler_time"] / total if total > 0 else 0.0

    # -- Figure 11 quantities -------------------------------------------------------

    @property
    def cumulative_origin_time(self) -> float:
        return self.put_packed_row().cumulative_latency

    @property
    def unaccounted_time(self) -> float:
        return self.put_packed_row().unaccounted_time

    @property
    def unaccounted_fraction(self) -> float:
        total = self.cumulative_origin_time
        return self.unaccounted_time / total if total > 0 else 0.0

    # -- Figure 10 / 12 series ---------------------------------------------------------

    def blocked_samples(self, server: Optional[str] = None):
        return blocked_ult_samples(self.collector.all_events(), server)

    def ofi_series(self, client: Optional[str] = None):
        events = self.collector.all_events()
        if client is not None:
            return ofi_events_series(events, client)
        out = []
        for addr in self.client_addrs:
            out.extend(ofi_events_series(events, addr))
        out.sort()
        return out


def run_hepnos_experiment(
    config: HEPnOSConfig,
    *,
    events_per_client: int = 2048,
    mean_event_bytes: int = 1024,
    stage: Stage = Stage.FULL,
    preset: Preset = THETA_KNL,
    pipeline_width: Optional[int] = None,
    seed: int = 7,
    time_limit: float = 300.0,
    monitoring: Optional[MonitorConfig] = None,
) -> HEPnOSExperimentResult:
    """Deploy ``config``, run the data-loader, and collect the results.

    ``monitoring`` attaches an online :class:`Monitor` to every process
    for the duration of the run (returned as ``result.monitor``);
    ``MonitorConfig(autotune=True)`` lets it retune the processes live.

    The cluster is not shut down: the monitor stops when the last
    loader finishes, and nothing after that instant runs, so the
    results cover exactly the load.
    """
    cluster = Cluster(
        seed=seed,
        stage=stage,
        preset=preset,
        hg_config=preset.hg_config(ofi_max_events=config.ofi_max_events),
        monitoring=monitoring,
    )
    service = HEPnOSService.deploy(
        cluster,
        n_servers=config.total_servers,
        servers_per_node=config.servers_per_node,
        n_handler_es=config.threads,
        n_databases=config.databases_per_server,
        backend="map",
        sdskv_costs=preset.map_costs,
    )

    if pipeline_width is None:
        windows = max(1, events_per_client // config.batch_size)
        pipeline_width = min(32, max(2, windows))

    loaders: list[DataLoader] = []
    client_addrs: list[str] = []
    for i in range(config.total_clients):
        addr = f"cli{i}"
        client_addrs.append(addr)
        mi = cluster.process(
            addr,
            f"cnode{i // config.clients_per_node}",
            use_progress_thread=config.client_progress_thread,
        )
        files = generate_event_files(
            n_files=1,
            events_per_file=events_per_client,
            mean_event_bytes=mean_event_bytes,
            seed=seed + i,
        )
        loader = DataLoader(
            mi,
            service,
            DataLoaderConfig(
                batch_size=config.batch_size,
                pipeline_width=pipeline_width,
                prep_fixed=preset.loader_prep_fixed,
                prep_per_event=preset.loader_prep_per_event,
                response_cost=preset.loader_response_cost,
            ),
        )
        loader.load(flatten_to_pairs(files))
        loaders.append(loader)

    all_loaded = all_of(
        cluster.sim, (ld.all_done for ld in loaders), name="hepnos-loaders-done"
    )
    finished = cluster.run_until_event(all_loaded, limit=time_limit)
    if cluster.monitor is not None:
        cluster.monitor.stop()
    if not finished:
        raise RuntimeError(
            f"{config.name}: data-loader did not finish within "
            f"{time_limit} simulated seconds"
        )

    return HEPnOSExperimentResult(
        config=config,
        cluster=cluster,
        makespan=max(ld.finished_at for ld in loaders),
        events_stored=sum(ld.events_stored for ld in loaders),
        rpcs_issued=sum(ld.client.rpcs_issued for ld in loaders),
        client_addrs=client_addrs,
        server_addrs=[s.addr for s in service.servers],
    )
