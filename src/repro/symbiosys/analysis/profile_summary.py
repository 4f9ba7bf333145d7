"""Global profile summary: the paper's "profile summary script".

Ingests the per-process origin/target profiles, identifies origin-target
pairs per callpath, and ranks callpaths by cumulative end-to-end request
latency (Figure 6).  For each dominant callpath it reports the breakdown
of the individual steps (Table III intervals) and the call-count
distribution over the participating origin and target entities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..callpath import CallpathRegistry
from ..collector import SymbiosysCollector
from ..profiling import INTERVALS, IntervalStats, ProfileStore

__all__ = ["CallpathRow", "ProfileSummary", "profile_summary"]

#: Component intervals whose sum is the "accounted" part of the origin
#: execution time.  These are pairwise-disjoint sub-intervals of
#: [t1, t14]: input serialization in [t1, t3], internal RDMA in [t3, t4],
#: handler delay [t4, t5], target execution [t5, t8] (which contains the
#: deserialization), and the origin completion callback [t12, t14].  The
#: target completion-callback interval [t8, t13] is excluded because it
#: overlaps the response's wire time and the origin-side intervals; the
#: remainder (request/response wire time plus OFI and completion-queue
#: backlogs) is the *unaccounted* component of Figure 11.
ACCOUNTED_INTERVALS = (
    "input_serialization_time",
    "internal_rdma_transfer_time",
    "target_handler_time",
    "target_execution_time",
    "origin_completion_callback_time",
)


@dataclass
class CallpathRow:
    """One callpath's aggregate view across all origin/target pairs."""

    callpath: int
    name: str
    call_count: int
    cumulative_latency: float  # summed origin execution time
    #: Total seconds per interval, summed over all pairs.
    breakdown: dict[str, float] = field(default_factory=dict)
    #: Call counts per participating entity.
    origin_counts: dict[str, int] = field(default_factory=dict)
    target_counts: dict[str, int] = field(default_factory=dict)
    #: Merged end-to-end latency distribution (count/min/max exact,
    #: percentiles reservoir-estimated) -- the "distribution of the call
    #: times" of §I question 1.
    latency_stats: IntervalStats = field(default_factory=IntervalStats)

    @property
    def mean_latency(self) -> float:
        return self.cumulative_latency / self.call_count if self.call_count else 0.0

    @property
    def accounted_time(self) -> float:
        return sum(self.breakdown.get(i, 0.0) for i in ACCOUNTED_INTERVALS)

    @property
    def unaccounted_time(self) -> float:
        """Origin execution time not explained by any instrumented
        component (the blue region of Figure 11)."""
        return self.cumulative_latency - self.accounted_time

    def fraction(self, interval: str) -> float:
        if self.cumulative_latency <= 0:
            return 0.0
        return self.breakdown.get(interval, 0.0) / self.cumulative_latency


@dataclass
class ProfileSummary:
    rows: list[CallpathRow]
    registry: Optional[CallpathRegistry] = None
    #: Run-wide degraded-mode gauges (timeouts, retries, failovers,
    #: dropped late responses), summed over processes.  All-zero in a
    #: fault-free run.
    resilience: dict[str, int] = field(default_factory=dict)

    def top(self, n: int = 5) -> list[CallpathRow]:
        return self.rows[:n]

    def row_for(self, name: str) -> CallpathRow:
        for row in self.rows:
            if row.name == name:
                return row
        raise KeyError(f"no callpath named {name!r} in summary")

    def render(self, top_n: int = 5, unit: float = 1e-3, unit_name: str = "ms") -> str:
        """ASCII rendering in the spirit of Figure 6."""
        lines = [
            f"{'callpath':<58} {'count':>8} {'cumulative':>12} {'mean':>10}",
            "-" * 92,
        ]
        for row in self.top(top_n):
            lines.append(
                f"{row.name:<58} {row.call_count:>8} "
                f"{row.cumulative_latency / unit:>10.3f}{unit_name} "
                f"{row.mean_latency / unit:>8.4f}{unit_name}"
            )
            for interval in INTERVALS:
                total = row.breakdown.get(interval, 0.0)
                if total > 0 and interval != "origin_execution_time":
                    lines.append(
                        f"    {interval:<48} {total / unit:>10.3f}{unit_name} "
                        f"({100 * row.fraction(interval):5.1f}%)"
                    )
            unacc = row.unaccounted_time
            lines.append(
                f"    {'(unaccounted)':<48} {unacc / unit:>10.3f}{unit_name} "
                f"({100 * unacc / row.cumulative_latency if row.cumulative_latency else 0:5.1f}%)"
            )
        if any(self.resilience.values()):
            lines.append("-" * 92)
            lines.append("degraded-mode gauges:")
            for name, value in self.resilience.items():
                lines.append(f"    {name:<48} {value:>10}")
        return "\n".join(lines)


def profile_summary(
    collector: SymbiosysCollector,
    *,
    origin_store: Optional[ProfileStore] = None,
    target_store: Optional[ProfileStore] = None,
) -> ProfileSummary:
    """Merge all per-process profiles and rank callpaths by cumulative
    end-to-end latency."""
    origin = origin_store or collector.merged_origin_profile()
    target = target_store or collector.merged_target_profile()
    registry = collector.registry

    rows: dict[int, CallpathRow] = {}

    def row_of(code: int) -> CallpathRow:
        row = rows.get(code)
        if row is None:
            row = rows[code] = CallpathRow(
                callpath=code,
                name=registry.decode(code),
                call_count=0,
                cumulative_latency=0.0,
            )
        return row

    for key in origin.keys():
        row = row_of(key.callpath)
        for interval, stats in origin.intervals_for(key).items():
            if interval == "origin_execution_time":
                row.call_count += stats.count
                row.cumulative_latency += stats.total
                row.latency_stats.merge(stats)
                row.origin_counts[key.origin] = (
                    row.origin_counts.get(key.origin, 0) + stats.count
                )
                row.target_counts[key.target] = (
                    row.target_counts.get(key.target, 0) + stats.count
                )
            row.breakdown[interval] = row.breakdown.get(interval, 0.0) + stats.total

    for key in target.keys():
        row = row_of(key.callpath)
        for interval, stats in target.intervals_for(key).items():
            row.breakdown[interval] = row.breakdown.get(interval, 0.0) + stats.total

    ordered = sorted(
        rows.values(), key=lambda r: r.cumulative_latency, reverse=True
    )
    return ProfileSummary(
        rows=ordered,
        registry=registry,
        resilience=collector.merged_resilience(),
    )
