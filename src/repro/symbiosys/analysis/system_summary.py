"""System-statistics summary: the paper's third analysis script.

Aggregates the OS/tasking-layer samples attached to trace events into a
per-process view: peak blocked/ready ULTs, mean CPU utilization, peak
memory -- the signals used to detect resource saturation (§I question 3).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..tracing import TraceEvent

__all__ = ["ProcessSystemStats", "SystemSummary", "system_summary"]


@dataclass
class ProcessSystemStats:
    process: str
    samples: int = 0
    max_blocked: int = 0
    max_ready: int = 0
    mean_cpu: float = 0.0
    peak_memory: int = 0

    def _fold(self, sysstats: dict) -> None:
        self.samples += 1
        self.max_blocked = max(self.max_blocked, sysstats.get("num_blocked", 0))
        self.max_ready = max(self.max_ready, sysstats.get("num_ready", 0))
        cpu = sysstats.get("cpu_util", 0.0)
        # Streaming mean.
        self.mean_cpu += (cpu - self.mean_cpu) / self.samples
        self.peak_memory = max(self.peak_memory, sysstats.get("memory_bytes", 0))


@dataclass
class SystemSummary:
    per_process: dict[str, ProcessSystemStats]

    def render(self) -> str:
        lines = [
            f"{'process':<16} {'samples':>8} {'max_blocked':>12} "
            f"{'max_ready':>10} {'mean_cpu':>9} {'peak_mem':>12}",
            "-" * 72,
        ]
        for name in sorted(self.per_process):
            s = self.per_process[name]
            lines.append(
                f"{name:<16} {s.samples:>8} {s.max_blocked:>12} "
                f"{s.max_ready:>10} {s.mean_cpu:>9.3f} {s.peak_memory:>12}"
            )
        return "\n".join(lines)


def system_summary(events: list[TraceEvent]) -> SystemSummary:
    per_process: dict[str, ProcessSystemStats] = {}
    for ev in events:
        if not ev.sysstats:
            continue
        stats = per_process.get(ev.process)
        if stats is None:
            stats = per_process[ev.process] = ProcessSystemStats(ev.process)
        stats._fold(ev.sysstats)
    return SystemSummary(per_process=per_process)
