"""Distributed callpath profiles.

A profile is a summary keyed by ``(callpath code, origin entity, target
entity)``: for every interval of Table III it keeps count / total / min /
max.  Origin-side and target-side measurements are maintained in separate
stores on each process (exactly as the paper describes) and merged
globally by the profile-summary analysis script.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Iterable, Optional

__all__ = ["IntervalStats", "ProfileKey", "ProfileStore", "INTERVALS"]

#: Bounded per-interval sample reservoir (distribution estimates).
RESERVOIR_SIZE = 64

#: Canonical interval names (Table III) plus the derived exclusive time.
INTERVALS = (
    "origin_execution_time",
    "input_serialization_time",
    "internal_rdma_transfer_time",
    "target_handler_time",
    "input_deserialization_time",
    "target_execution_time",  # inclusive, t5 -> t8
    "target_execution_time_exclusive",  # minus nested RPC origin time
    "output_serialization_time",
    "target_completion_callback_time",
    "origin_completion_callback_time",
    "bulk_transfer_time",
)


_MASK64 = (1 << 64) - 1


def _slot_priority(seq: int) -> int:
    """Deterministic pseudo-random priority for reservoir sampling --
    depends only on the sample's sequence number, never on wall clocks.
    splitmix64 finalizer: cheap enough for the instrumentation hot path."""
    z = (seq + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass
class IntervalStats:
    """Streaming summary of one measured interval.

    Besides count/total/min/max, keeps a bounded deterministic reservoir
    of samples so the analysis layer can report call-time *distributions*
    (percentiles), per the paper's §I question 1.
    """

    count: int = 0
    total: float = 0.0
    minimum: float = float("inf")
    maximum: float = float("-inf")
    #: (priority, value) reservoir; top-RESERVOIR_SIZE priorities kept.
    _reservoir: list[tuple[int, float]] = field(default_factory=list, repr=False)

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        self._offer(_slot_priority(self.count), value)

    def _offer(self, priority: int, value: float) -> None:
        if len(self._reservoir) < RESERVOIR_SIZE:
            self._reservoir.append((priority, value))
            if len(self._reservoir) == RESERVOIR_SIZE:
                self._reservoir.sort()
            return
        # Reservoir full (kept sorted): replace the lowest priority.
        if priority > self._reservoir[0][0]:
            self._reservoir.pop(0)
            bisect.insort(self._reservoir, (priority, value))

    def merge(self, other: "IntervalStats") -> None:
        self.count += other.count
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        combined = self._reservoir + other._reservoir
        if len(combined) >= RESERVOIR_SIZE:
            combined.sort()
            combined = combined[-RESERVOIR_SIZE:]
        self._reservoir = combined

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def samples(self) -> list[float]:
        """The retained distribution samples (unordered subset)."""
        return [v for _, v in self._reservoir]

    def percentile(self, q: float) -> float:
        """Estimated q-th percentile (0..100) from the reservoir."""
        if not 0 <= q <= 100:
            raise ValueError("percentile must be in [0, 100]")
        if not self._reservoir:
            return 0.0
        values = sorted(v for _, v in self._reservoir)
        # Exact bounds are known regardless of sampling.
        if q == 0:
            return self.minimum
        if q == 100:
            return self.maximum
        idx = min(len(values) - 1, int(q / 100.0 * len(values)))
        return values[idx]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.count:
            return "IntervalStats(empty)"
        return (
            f"IntervalStats(n={self.count}, total={self.total:.6g}, "
            f"mean={self.mean:.6g})"
        )


@dataclass(frozen=True)
class ProfileKey:
    """Identity of one profiled edge: who called what along which chain."""

    callpath: int
    origin: str
    target: str


class ProfileStore:
    """Per-process (or merged) store of callpath interval statistics."""

    def __init__(self) -> None:
        self._data: dict[ProfileKey, dict[str, IntervalStats]] = {}

    def add(self, key: ProfileKey, interval: str, value: float) -> None:
        if interval not in INTERVALS:
            raise ValueError(f"unknown interval {interval!r}")
        by_interval = self._data.setdefault(key, {})
        stats = by_interval.get(interval)
        if stats is None:
            stats = by_interval[interval] = IntervalStats()
        stats.add(value)

    def get(self, key: ProfileKey, interval: str) -> Optional[IntervalStats]:
        return self._data.get(key, {}).get(interval)

    def keys(self) -> Iterable[ProfileKey]:
        return self._data.keys()

    def intervals_for(self, key: ProfileKey) -> dict[str, IntervalStats]:
        return dict(self._data.get(key, {}))

    def __len__(self) -> int:
        return len(self._data)

    def merge(self, other: "ProfileStore") -> None:
        """Fold another store into this one (global consolidation)."""
        for key, by_interval in other._data.items():
            mine = self._data.setdefault(key, {})
            for interval, stats in by_interval.items():
                if interval in mine:
                    mine[interval].merge(stats)
                else:
                    merged = IntervalStats()
                    merged.merge(stats)
                    mine[interval] = merged
