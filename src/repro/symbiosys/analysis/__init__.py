"""Offline analysis scripts: profile, trace, and system summaries."""

from .plots import scatter
from .profile_summary import CallpathRow, ProfileSummary, profile_summary
from .system_summary import ProcessSystemStats, SystemSummary, system_summary
from .trace_summary import (
    RequestTrace,
    Span,
    TraceSummary,
    blocked_ult_samples,
    estimate_clock_offsets,
    ofi_events_series,
    stitch_traces,
    trace_summary,
)

__all__ = [
    "CallpathRow",
    "ProcessSystemStats",
    "ProfileSummary",
    "RequestTrace",
    "Span",
    "SystemSummary",
    "TraceSummary",
    "blocked_ult_samples",
    "estimate_clock_offsets",
    "ofi_events_series",
    "profile_summary",
    "scatter",
    "stitch_traces",
    "system_summary",
    "trace_summary",
]
