"""SYMBIOSYS: integrated performance instrumentation, measurement, and
analysis for HPC microservices (the paper's core contribution).

Public surface:

* :class:`SymbiosysCollector` -- create per-process instrumentation and
  consolidate profiles/traces at the end of a run.
* :class:`Stage` -- Baseline / Stage 1 / Stage 2 / Full Support.
* :mod:`repro.symbiosys.analysis` -- the three analysis scripts.
* :mod:`repro.symbiosys.zipkin` -- Zipkin JSON trace export.
* :class:`Monitor` / :class:`MonitorConfig` -- always-on online
  telemetry: periodic sampling into ring-buffer time-series, scheduler
  slice recording, and anomaly detection.
* :mod:`repro.symbiosys.export` -- Prometheus text, CSV time-series,
  profile CSV and trace JSON; :mod:`repro.symbiosys.perfetto` -- the
  Perfetto/Chrome timeline.
"""

from .callpath import MAX_DEPTH, CallpathRegistry, components, depth, hash16, push
from .collector import SymbiosysCollector
from .export import series_to_csv, to_prometheus
from .instrument import SymbiosysInstrumentation
from .metrics import MetricsRegistry, SeriesStore, TimeSeries
from .monitor import AnomalyDetector, Finding, Monitor, MonitorConfig
from .perfetto import chrome_trace_json, to_chrome_trace, write_chrome_trace
from .policy import (
    DedicateProgressES,
    MetricSample,
    Policy,
    PolicyAction,
    PolicyEngine,
    RaiseOfiMaxEvents,
)
from .profiling import INTERVALS, IntervalStats, ProfileKey, ProfileStore
from .stages import Stage
from .tracing import (
    EventKind,
    FaultAnnotation,
    SpanIdAllocator,
    TraceBuffer,
    TraceEvent,
)

__all__ = [
    "AnomalyDetector",
    "CallpathRegistry",
    "DedicateProgressES",
    "EventKind",
    "FaultAnnotation",
    "Finding",
    "MetricSample",
    "MetricsRegistry",
    "Monitor",
    "MonitorConfig",
    "Policy",
    "PolicyAction",
    "PolicyEngine",
    "RaiseOfiMaxEvents",
    "INTERVALS",
    "IntervalStats",
    "MAX_DEPTH",
    "ProfileKey",
    "ProfileStore",
    "SeriesStore",
    "SpanIdAllocator",
    "Stage",
    "SymbiosysCollector",
    "SymbiosysInstrumentation",
    "TimeSeries",
    "TraceBuffer",
    "TraceEvent",
    "chrome_trace_json",
    "components",
    "depth",
    "hash16",
    "push",
    "series_to_csv",
    "to_chrome_trace",
    "to_prometheus",
    "write_chrome_trace",
]
