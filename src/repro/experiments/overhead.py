"""Overhead evaluation harness (Figure 13 and Table V).

Figure 13 measures the *instrumentation* overhead: the same HEPnOS
data-loader run at Baseline / Stage 1 / Stage 2 / Full Support, averaged
over several repetitions.  In this reproduction the simulated workload
timeline is identical across stages by construction (instrumentation
adds no simulated cost, as the paper found its overhead indistinguishable
from run-to-run variation); what the stages *do* change is the real
Python work performed by the measurement layer, so we report wall-clock
execution time per stage -- the honest analogue of the paper's metric --
alongside the simulated makespan as a sanity check.  A stage's overhead
is the median over repetitions of its wall time over the same
repetition's Baseline (:meth:`OverheadStudyResult.paired_ratio`).

Table V measures the offline analysis scripts (profile / trace / system
summaries) over the collected data.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from typing import Optional

from ..symbiosys import Stage
from ..symbiosys.analysis import profile_summary, system_summary, trace_summary
from ..symbiosys.monitor import MonitorConfig
from .configs import HEPnOSConfig, TABLE_IV
from .hepnos import HEPnOSExperimentResult
from .presets import THETA_KNL, Preset
from .runner import map_cells, overhead_cell

__all__ = [
    "StageTiming",
    "OverheadStudyResult",
    "AnalysisTimings",
    "run_overhead_study",
    "time_analysis_scripts",
    "OVERHEAD_STAGES",
]

OVERHEAD_STAGES = (Stage.OFF, Stage.STAGE1, Stage.STAGE2, Stage.FULL)

_STAGE_LABELS = {
    Stage.OFF: "Baseline",
    Stage.STAGE1: "Stage 1",
    Stage.STAGE2: "Stage 2",
    Stage.FULL: "Full Support",
}


@dataclass
class StageTiming:
    stage: Stage
    wall_times: list[float] = field(default_factory=list)
    sim_makespans: list[float] = field(default_factory=list)
    trace_events: int = 0
    #: Overrides the stage label (used by the monitoring arm).
    label_override: Optional[str] = None

    @property
    def label(self) -> str:
        if self.label_override is not None:
            return self.label_override
        return _STAGE_LABELS[self.stage]

    @property
    def mean_wall(self) -> float:
        return sum(self.wall_times) / len(self.wall_times)

    @property
    def mean_makespan(self) -> float:
        return sum(self.sim_makespans) / len(self.sim_makespans)


@dataclass
class OverheadStudyResult:
    timings: dict[Stage, StageTiming]
    #: The Full-Support run repeated with the online monitor attached
    #: (``run_overhead_study(monitoring=...)``); None otherwise.
    monitored: Optional[StageTiming] = None

    def paired_ratio(self, arm: StageTiming, base: StageTiming) -> float:
        """Median over repetitions of ``arm``'s wall time over ``base``'s.

        Cells run repetition-major, so each pair ran back to back and
        the ratio cancels machine drift between repetitions."""
        # Imported here: ``statistics`` loads ``decimal`` and
        # ``fractions``, which no simulation run needs.
        import statistics

        return statistics.median(
            a / b for a, b in zip(arm.wall_times, base.wall_times)
        )

    def overhead_vs_baseline(self, stage: Stage) -> float:
        """Relative wall-clock overhead of ``stage`` over Baseline."""
        return self.paired_ratio(self.timings[stage], self.timings[Stage.OFF]) - 1

    def monitoring_sim_overhead(self) -> float:
        """Relative *simulated-time* overhead of monitoring over the
        un-monitored Full Support run (0.0 by construction: the sampler
        is a pure observer and adds no simulated cost)."""
        if self.monitored is None:
            raise ValueError("study was run without a monitoring arm")
        base = self.timings[Stage.FULL].mean_makespan
        if base <= 0:
            return 0.0
        return (self.monitored.mean_makespan - base) / base

    def rows(self) -> list[dict]:
        """One row per stage the study ran, then the monitoring arm."""
        base = self.timings[Stage.OFF]
        arms = list(self.timings.values())
        if self.monitored is not None:
            arms.append(self.monitored)
        return [
            {
                "stage": t.label,
                "mean_wall_s": t.mean_wall,
                "mean_sim_makespan_s": t.mean_makespan,
                "trace_events": t.trace_events,
                "overhead_vs_baseline": self.paired_ratio(t, base) - 1,
            }
            for t in arms
        ]


def run_overhead_study(
    *,
    config: HEPnOSConfig = None,
    repetitions: int = 5,
    events_per_client: int = 1024,
    preset: Preset = THETA_KNL,
    stages=OVERHEAD_STAGES,
    monitoring: Optional[MonitorConfig] = None,
    jobs: int = 1,
) -> OverheadStudyResult:
    """Figure 13: repeat the data-loader run at each instrumentation
    stage and time it.

    ``monitoring`` adds a fifth arm: Full Support with the online
    monitor attached, so the telemetry layer's cost shows up next to the
    instrumentation stages (its *simulated* overhead must be ~0).
    ``stages`` must include Baseline (``Stage.OFF``): every overhead is
    relative to it.

    Cells run repetition-major: each repetition runs every stage and
    then the monitoring arm before the next repetition starts, so
    machine drift during the study spreads over all arms instead of
    landing on one stage's block of repeats.

    ``jobs > 1`` fans the (stage, repetition) cells across worker
    processes.  Simulated quantities (makespans, trace counts) are
    unaffected; the per-cell *wall* times then include scheduling
    contention, so keep ``jobs=1`` when the wall-clock columns matter.
    """
    if config is None:
        # The paper's overhead study used a dedicated large-scale setup;
        # C2's shape (32 clients, 4 servers) is the closest Table IV row.
        config = TABLE_IV["C2"]
    if repetitions < 1:
        raise ValueError("repetitions must be positive")
    if Stage.OFF not in stages:
        raise ValueError("stages must include Stage.OFF, the baseline")

    def cell(stage: Stage, rep: int, mon: Optional[MonitorConfig]) -> dict:
        return {
            "config": config,
            "events_per_client": events_per_client,
            "stage": stage,
            "preset": preset,
            "seed": 1000 + rep,
            "monitoring": mon,
        }

    timings = {stage: StageTiming(stage=stage) for stage in stages}
    monitored: Optional[StageTiming] = None
    arms = [(timing, None) for timing in timings.values()]
    if monitoring is not None:
        monitored = StageTiming(stage=Stage.FULL,
                                label_override="Full + monitor")
        arms.append((monitored, monitoring))
    cells = [
        cell(timing.stage, rep, mon)
        for rep in range(repetitions)
        for timing, mon in arms
    ]
    outs = map_cells(overhead_cell, cells, jobs=jobs)
    for i, out in enumerate(outs):
        timing = arms[i % len(arms)][0]
        timing.wall_times.append(out["wall"])
        timing.sim_makespans.append(out["makespan"])
        timing.trace_events = max(timing.trace_events, out["trace_events"])
    return OverheadStudyResult(timings=timings, monitored=monitored)


@dataclass
class AnalysisTimings:
    """Table V: analysis script runtimes over one run's data."""

    profile_summary_s: float
    trace_summary_s: float
    system_summary_s: float
    trace_events: int

    def rows(self) -> list[dict]:
        return [
            {
                "Profile Summary (s)": self.profile_summary_s,
                "Trace Summary (s)": self.trace_summary_s,
                "System Statistics Summary (s)": self.system_summary_s,
                "trace events": self.trace_events,
            }
        ]


def time_analysis_scripts(result: HEPnOSExperimentResult) -> AnalysisTimings:
    """Time the three offline analysis scripts on collected data."""
    collector = result.collector

    t0 = time.perf_counter()
    summary = profile_summary(collector)
    summary.render()
    t_profile = time.perf_counter() - t0

    t0 = time.perf_counter()
    traces = trace_summary(collector)
    traces.render()
    traces.structure_counts()
    t_trace = time.perf_counter() - t0

    t0 = time.perf_counter()
    system_summary(collector.all_events()).render()
    t_system = time.perf_counter() - t0

    return AnalysisTimings(
        profile_summary_s=t_profile,
        trace_summary_s=t_trace,
        system_summary_s=t_system,
        trace_events=collector.total_trace_events,
    )
