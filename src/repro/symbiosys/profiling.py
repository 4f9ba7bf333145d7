"""Distributed callpath profiles.

A profile is a summary keyed by ``(callpath code, origin entity, target
entity)``: for every interval of Table III it keeps count / total / min /
max and a bounded sample reservoir.  Origin-side and target-side
measurements are maintained in separate stores on each process (exactly
as the paper describes) and merged globally by the profile-summary
analysis script.

Recording is the per-RPC hot path, so a store does not summarise a
sample when it arrives.  An instrumentation hook resolves its edge's row
once (:meth:`ProfileStore.row`) and appends each measured value to that
row's column for the interval: one C-level ``array('d').append``.  The
columns are folded into the :class:`IntervalStats` summaries in bulk
when the store is read (``keys``, ``get``, ``intervals_for``, ``merge``,
``len``), or once a store could hold :data:`FOLD_CAP` unsummarised
samples, which bounds its memory however long the run.  One fold of
many samples gives exactly what one fold per sample would: the total
is summed one sample at a time in sample order, ``min``/``max`` keep
the first of equal values, and a sample's reservoir priority depends
only on its index (see :func:`_slot_priority`).
"""

from __future__ import annotations

import bisect
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain
from operator import add
from typing import Iterable, NamedTuple, Optional

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

#: Most unsummarised samples a :class:`ProfileStore` holds.
FOLD_CAP = 4096
#: Row hand-outs between folds: each hand-out appends at most one sample
#: per interval, so a store never holds more than FOLD_CAP samples.
_FOLD_EVERY = FOLD_CAP // len(INTERVALS)


_MASK64 = (1 << 64) - 1


def _slot_priority(seq: int) -> int:
    """Deterministic pseudo-random priority for reservoir sampling --
    depends only on the sample's sequence number, never on wall clocks.
    The splitmix64 finalizer is a bijection on 64-bit integers, so no
    two samples of one summary share a priority."""
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

    def _fold(self, values: array) -> None:
        """Summarise ``values``, the samples after the first ``count``,
        in order."""
        n = len(values)
        first = self.count + 1
        self.count += n
        # Sequential adds, not sum(): sum() compensates on Python 3.12+.
        self.total = reduce(add, values, self.total)
        # min()/max() keep the first of equal values (0.0 before -0.0).
        self.minimum = min(chain((self.minimum,), values))
        self.maximum = max(chain((self.maximum,), values))
        reservoir = self._reservoir
        offer = self._offer
        for seq, value in enumerate(values, first):
            priority = _slot_priority(seq)
            # A full reservoir refuses anything at or below its lowest.
            if len(reservoir) < RESERVOIR_SIZE or priority > reservoir[0][0]:
                offer(priority, value)

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


class ProfileKey(NamedTuple):
    """Identity of one profiled edge: who called what along which chain.
    A plain ``(callpath, origin, target)`` tuple finds the same row."""

    callpath: int
    origin: str
    target: str


def _column() -> array:
    return array("d")


class ProfileStore:
    """Per-process (or merged) store of callpath interval statistics."""

    def __init__(self) -> None:
        #: Unsummarised samples: per edge, one column per interval, the
        #: intervals in the order of their first sample.
        self._columns: dict[ProfileKey, defaultdict[str, array]] = {}
        self._stats: dict[ProfileKey, dict[str, IntervalStats]] = {}
        self._handouts = 0

    def row(self, key: tuple) -> defaultdict[str, array]:
        """The sample columns of edge ``key`` (a :class:`ProfileKey` or a
        plain tuple of its fields), by interval name.  The caller appends
        at most one value per interval before its next call, and at
        least one in all."""
        if self._handouts == _FOLD_EVERY:
            self._fold()
        self._handouts += 1
        columns = self._columns.get(key)
        if columns is None:
            columns = self._columns[ProfileKey._make(key)] = defaultdict(_column)
        return columns

    def _fold(self) -> None:
        """Summarise every unsummarised sample, in sample order."""
        self._handouts = 0
        for key, columns in self._columns.items():
            by_interval = self._stats.get(key)
            if by_interval is None:
                by_interval = self._stats[key] = {}
            for interval, column in columns.items():
                if column:
                    stats = by_interval.get(interval)
                    if stats is None:
                        stats = by_interval[interval] = IntervalStats()
                    stats._fold(column)
                    del column[:]

    def get(self, key: ProfileKey, interval: str) -> Optional[IntervalStats]:
        self._fold()
        return self._stats.get(key, {}).get(interval)

    def keys(self) -> Iterable[ProfileKey]:
        self._fold()
        return self._stats.keys()

    def intervals_for(self, key: ProfileKey) -> dict[str, IntervalStats]:
        self._fold()
        return dict(self._stats.get(key, {}))

    def __len__(self) -> int:
        self._fold()
        return len(self._stats)

    def merge(self, other: "ProfileStore") -> None:
        """Fold another store into this one (global consolidation)."""
        self._fold()
        other._fold()
        for key, by_interval in other._stats.items():
            mine = self._stats.setdefault(key, {})
            for interval, stats in by_interval.items():
                if interval in mine:
                    mine[interval].merge(stats)
                else:
                    merged = IntervalStats()
                    merged.merge(stats)
                    mine[interval] = merged
