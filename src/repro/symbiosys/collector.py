"""Run-wide consolidation of per-process SYMBIOSYS data.

The paper consolidates profiles and traces "at the end of the execution";
the :class:`SymbiosysCollector` is that consolidation point.  It hands
out per-process instrumentation objects (all sharing one callpath-name
registry) and merges their stores for the analysis scripts.
"""

from __future__ import annotations

from typing import Iterable

from .callpath import CallpathRegistry
from .instrument import SymbiosysInstrumentation
from .profiling import ProfileStore
from .stages import Stage
from .tracing import FaultAnnotation, RetryRecord, SpanIdAllocator, TraceEvent

__all__ = ["SymbiosysCollector"]


class SymbiosysCollector:
    """Factory for per-process instrumentation + global aggregation."""

    def __init__(self, stage: Stage = Stage.FULL):
        self.stage = stage
        self.registry = CallpathRegistry()
        #: One span-id counter per run: ids are unique across this run's
        #: processes and restart at 1 for every collector, so same-seed
        #: runs export identical span ids.
        self.span_ids = SpanIdAllocator()
        self.instruments: list[SymbiosysInstrumentation] = []

    def create_instrumentation(self) -> SymbiosysInstrumentation:
        instr = SymbiosysInstrumentation(
            self.stage, self.registry, span_ids=self.span_ids
        )
        self.instruments.append(instr)
        return instr

    # -- consolidation ------------------------------------------------------

    def merged_origin_profile(self) -> ProfileStore:
        merged = ProfileStore()
        for instr in self.instruments:
            merged.merge(instr.origin_profile)
        return merged

    def merged_target_profile(self) -> ProfileStore:
        merged = ProfileStore()
        for instr in self.instruments:
            merged.merge(instr.target_profile)
        return merged

    def merged_resilience(self) -> dict[str, int]:
        """Run-wide degraded-mode gauges, summed over all processes."""
        merged: dict[str, int] = {}
        for instr in self.instruments:
            for name, value in instr.resilience_counters().items():
                merged[name] = merged.get(name, 0) + value
        return merged

    def all_events(self) -> list[TraceEvent]:
        events: list[TraceEvent] = []
        for instr in self.instruments:
            if instr.trace is not None:
                events.extend(instr.trace.events)
        return events

    def annotations_by_process(self) -> dict[str, list[FaultAnnotation]]:
        return {
            instr.trace.process: list(instr.trace.annotations)
            for instr in self.instruments
            if instr.trace is not None
        }

    def all_retries(self) -> list[RetryRecord]:
        """Every retry/timeout record from any process's trace buffer,
        in stable time order."""
        recs: list[RetryRecord] = []
        for instr in self.instruments:
            if instr.trace is not None:
                recs.extend(instr.trace.retries)
        recs.sort(
            key=lambda r: (r.time, r.process, r.request_id, r.attempt, r.kind)
        )
        return recs

    @property
    def total_trace_events(self) -> int:
        return sum(
            len(i.trace) for i in self.instruments if i.trace is not None
        )

    def processes(self) -> Iterable[str]:
        return [
            i.trace.process for i in self.instruments if i.trace is not None
        ]
