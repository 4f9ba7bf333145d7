"""ior + Mobject experiment harness (Figures 5 and 6).

One Mobject provider node with 10 ior clients colocated on the same
physical node, exactly as §V-A: writes then reads.  Produces the
dominant-callpath profile summary (Fig 6) and a stitched Zipkin trace of
a single ``mobject_write_op`` showing its 12 discrete steps (Fig 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..cluster import Cluster
from ..services.mobject import MobjectProviderNode
from ..symbiosys import Stage, SymbiosysCollector
from ..symbiosys.analysis import (
    ProfileSummary,
    TraceSummary,
    profile_summary,
    trace_summary,
)
from ..workloads import IorClient, IorConfig, run_ior_clients
from .presets import FAST_TEST, Preset

__all__ = ["MobjectExperimentResult", "run_mobject_experiment"]


@dataclass
class MobjectExperimentResult:
    cluster: Cluster
    makespan: float
    clients: list[IorClient]

    @property
    def collector(self) -> SymbiosysCollector:
        return self.cluster.collector

    @property
    def summary(self) -> ProfileSummary:
        return profile_summary(self.collector)

    @property
    def traces(self) -> TraceSummary:
        return trace_summary(self.collector)

    def write_op_trace(self) -> Optional[object]:
        """One complete mobject_write_op request trace (for Fig 5)."""
        for req in self.traces.requests.values():
            if req.roots and req.roots[0].rpc_name == "mobject_write_op":
                if all(s.complete for s in req.roots[0].walk()):
                    return req
        return None


def run_mobject_experiment(
    *,
    n_clients: int = 10,
    ior_config: Optional[IorConfig] = None,
    stage: Stage = Stage.FULL,
    preset: Preset = FAST_TEST,
    n_handler_es: int = 8,
    time_limit: float = 60.0,
) -> MobjectExperimentResult:
    cluster = Cluster(stage=stage, preset=preset)
    provider = cluster.process("mobject0", "node0", n_handler_es=n_handler_es)
    MobjectProviderNode(provider, sdskv_costs=preset.map_costs)
    clients = [
        IorClient(
            # Colocated with the provider node.
            cluster.process(f"ior{rank}", "node0"),
            "mobject0",
            rank,
            ior_config or IorConfig(),
        )
        for rank in range(n_clients)
    ]
    all_done = run_ior_clients(clients)

    finished = cluster.run_until_event(all_done, limit=time_limit)
    if not finished:
        raise RuntimeError("ior clients did not finish in time")
    for c in clients:
        if c.write_errors or c.read_mismatches:
            raise RuntimeError(
                f"ior rank {c.rank}: {c.write_errors} write errors, "
                f"{c.read_mismatches} read mismatches"
            )
    return MobjectExperimentResult(
        cluster=cluster,
        makespan=max(c.finished_at for c in clients),
        clients=clients,
    )
