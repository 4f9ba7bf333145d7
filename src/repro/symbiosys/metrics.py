"""Online metrics primitives for the always-on telemetry layer.

SYMBIOSYS's pitch is *always-on, low-overhead* measurement, yet the
original workflow is post-mortem: profiles and traces materialize after
the run.  This module is the in-flight half: bounded ring-buffer
:class:`TimeSeries` and fixed-bucket :class:`Histogram` s, held with
their metric families by the :class:`SeriesStore` the
:class:`~repro.symbiosys.monitor.Monitor` fills while the simulation is
still running.  A sampled counter or gauge has no value object of its
own: its series is the metric, and a snapshot reads the latest sample.

Design constraints (all load-bearing for the determinism tests):

* No wall-clock reads anywhere -- every sample is stamped with the
  *simulated* time handed in by the caller.
* Bounded memory -- time-series are ring buffers; once full they drop
  the oldest sample and count the loss instead of growing.
* Deterministic iteration -- stores render their contents in sorted
  ``(name, labels)`` order so exports are byte-stable.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Iterable, Optional

__all__ = [
    "Histogram",
    "SeriesStore",
    "TimeSeries",
]

#: Default histogram bucket upper bounds (queue depths / event counts).
DEFAULT_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

LabelItems = tuple[tuple[str, str], ...]
MetricKey = tuple[str, LabelItems]


def _label_items(labels: Optional[dict[str, str]]) -> LabelItems:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Histogram:
    """Fixed-bucket cumulative histogram (Prometheus ``histogram``).

    ``bounds`` are upper bucket edges; an implicit ``+Inf`` bucket
    catches the rest.  Counts, sum, and bucket layout are all plain
    integers/floats -- no randomness, no wall clock.
    """

    __slots__ = ("name", "labels", "bounds", "bucket_counts", "total", "count")

    def __init__(
        self,
        name: str,
        labels: LabelItems = (),
        bounds: Iterable[float] = DEFAULT_BUCKETS,
    ):
        self.name = name
        self.labels = labels
        self.bounds = tuple(float(b) for b in bounds)
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError("histogram bounds must be sorted ascending")
        if len(set(self.bounds)) != len(self.bounds):
            raise ValueError("histogram bounds must be distinct")
        #: Per-bucket (non-cumulative) counts; index len(bounds) is +Inf.
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1

    def cumulative(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ``inf`` last --
        the ``_bucket{le=...}`` series of the Prometheus exposition."""
        out = []
        running = 0
        for bound, n in zip(self.bounds, self.bucket_counts):
            running += n
            out.append((bound, running))
        out.append((float("inf"), running + self.bucket_counts[-1]))
        return out


class TimeSeries:
    """A bounded ``(time, value)`` ring buffer for one metric instance.

    Appending past capacity evicts the oldest sample and increments
    :attr:`dropped`; the window always holds the *latest* ``capacity``
    samples, which is what live monitoring wants.

    Storage is one ``array('d')`` ring buffer of interleaved ``t, v``
    pairs, so an append is two C-level scalar writes -- no tuple
    allocation on the sampling hot path -- and a series costs one
    buffer object.  Values are coerced to float; every consumer (CSV
    export, threshold checks) treats them numerically.
    """

    __slots__ = ("name", "labels", "capacity", "dropped", "_tv", "_head")

    def __init__(self, name: str, labels: LabelItems = (), capacity: int = 4096):
        if capacity < 1:
            raise ValueError("time-series capacity must be positive")
        self.name = name
        self.labels = labels
        self.capacity = capacity
        self.dropped = 0
        self._tv = array("d")
        self._head = 0  # buffer index of the oldest pair once wrapped

    def append(self, t: float, value: float) -> None:
        tv = self._tv
        if len(tv) < 2 * self.capacity:
            tv.append(t)
            tv.append(value)
        else:
            head = self._head
            tv[head] = t
            tv[head + 1] = value
            head += 2
            self._head = 0 if head == len(tv) else head
            self.dropped += 1

    def samples(self) -> list[tuple[float, float]]:
        """Chronological ``(time, value)`` list of the retained window."""
        tv = self._tv
        head = self._head
        if head:
            tv = tv[head:] + tv[:head]
        pairs = iter(tv)
        return list(zip(pairs, pairs))

    def latest(self) -> Optional[tuple[float, float]]:
        tv = self._tv
        if not tv:
            return None
        end = self._head or len(tv)  # the newest pair ends at the head
        return (tv[end - 2], tv[end - 1])

    def __len__(self) -> int:
        return len(self._tv) >> 1


class SeriesStore:
    """Every monitored value of one monitor: its time-series and
    histograms, and the metric families they belong to.

    One family (name) has one type (``counter``, ``gauge`` or
    ``histogram``) and one help string; label sets distinguish its
    instances (typically ``{"process": addr}``).  A series whose name
    has no family (a detector's own, such as the shard balancer's
    ``shard_ops``) is exported to CSV only.
    """

    def __init__(self, capacity: int = 4096):
        self.capacity = capacity
        self._series: dict[MetricKey, TimeSeries] = {}
        #: name -> (type string, help string)
        self._families: dict[str, tuple[str, str]] = {}
        #: Histograms, in creation order.
        self.histograms: list[Histogram] = []

    def family(self, name: str, kind: str, help: str = "") -> None:
        """Declare a metric family; a second kind for a name raises."""
        existing = self._families.get(name)
        if existing is None:
            self._families[name] = (kind, help)
        elif existing[0] != kind:
            raise ValueError(
                f"metric {name!r} is a {existing[0]}, not a {kind}"
            )

    def family_info(self, name: str) -> Optional[tuple[str, str]]:
        """``(kind, help)`` of a declared family, else None."""
        return self._families.get(name)

    def _series_at(self, key: MetricKey) -> TimeSeries:
        """Get-or-create by a prebuilt ``(name, labels)`` key."""
        ts = self._series.get(key)
        if ts is None:
            ts = self._series[key] = TimeSeries(key[0], key[1], self.capacity)
        return ts

    def series(self, name: str, labels: Optional[dict] = None) -> TimeSeries:
        return self._series_at((name, _label_items(labels)))

    def add_histogram(
        self,
        name: str,
        labels: LabelItems = (),
        bounds: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        hist = Histogram(name, labels, bounds)
        self.histograms.append(hist)
        return hist

    def all_series(self) -> list[TimeSeries]:
        """Every series, sorted by ``(name, labels)`` for stable export."""
        return [self._series[key] for key in sorted(self._series)]

    @property
    def total_samples(self) -> int:
        return sum(len(ts) for ts in self._series.values())

    def __len__(self) -> int:
        return len(self._series)
