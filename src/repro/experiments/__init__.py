"""Experiment harnesses reproducing the paper's tables and figures."""

from .configs import HEPnOSConfig, TABLE_IV, table_iv_rows
from .faults import (
    FaultCampaignResult,
    default_fault_plan,
    default_retry_policy,
    run_fault_campaign,
)
from .hepnos import (
    HEPnOSExperimentResult,
    PUT_PACKED,
    run_hepnos_experiment,
)
from .mobject import MobjectExperimentResult, run_mobject_experiment
from .monitor import (
    MonitorExperimentResult,
    run_monitor_experiment,
)
from .overhead import (
    AnalysisTimings,
    OverheadStudyResult,
    run_overhead_study,
    time_analysis_scripts,
)
from .presets import FAST_TEST, THETA_KNL, Preset
from .reporting import ascii_table, format_seconds, series_histogram
from .scale import (
    ScaleCell,
    ScaleCellResult,
    ScaleExperimentResult,
    run_scale_cell,
    run_scale_experiment,
    smoke_cell,
)
from .sonata import SonataExperimentResult, run_sonata_experiment

__all__ = [
    "AnalysisTimings",
    "FAST_TEST",
    "FaultCampaignResult",
    "HEPnOSConfig",
    "HEPnOSExperimentResult",
    "MobjectExperimentResult",
    "MonitorExperimentResult",
    "OverheadStudyResult",
    "PUT_PACKED",
    "Preset",
    "ScaleCell",
    "ScaleCellResult",
    "ScaleExperimentResult",
    "SonataExperimentResult",
    "TABLE_IV",
    "THETA_KNL",
    "ascii_table",
    "default_fault_plan",
    "default_retry_policy",
    "format_seconds",
    "run_fault_campaign",
    "run_monitor_experiment",
    "run_hepnos_experiment",
    "run_mobject_experiment",
    "run_overhead_study",
    "run_scale_cell",
    "run_scale_experiment",
    "run_sonata_experiment",
    "smoke_cell",
    "series_histogram",
    "table_iv_rows",
    "time_analysis_scripts",
]
