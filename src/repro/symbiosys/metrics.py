"""Online metrics primitives for the always-on telemetry layer.

SYMBIOSYS's pitch is *always-on, low-overhead* measurement, yet the
original workflow is post-mortem: profiles and traces materialize after
the run.  This module is the in-flight half: a small, fully deterministic
metrics vocabulary (:class:`Counter`, :class:`Gauge`,
:class:`Histogram`) behind a :class:`MetricsRegistry`, plus bounded
ring-buffer :class:`TimeSeries` the
:class:`~repro.symbiosys.monitor.Monitor` fills while the simulation is
still running.

Design constraints (all load-bearing for the determinism tests):

* No wall-clock reads anywhere -- every sample is stamped with the
  *simulated* time handed in by the caller.
* Bounded memory -- time-series are ring buffers; once full they drop
  the oldest sample and count the loss instead of growing.
* Deterministic iteration -- registries and stores render their contents
  in sorted ``(name, labels)`` order so exports are byte-stable.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Any, Iterable, Iterator, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
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


class Counter:
    """Monotonically non-decreasing value (Prometheus ``counter``)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelItems = ()):
        self.name = name
        self.labels = labels
        self.value: float = 0

    def inc(self, delta: float = 1) -> None:
        if delta < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += delta

    def set_total(self, total: float) -> None:
        """Adopt an externally maintained cumulative total (e.g. a
        COUNTER-class PVAR sampled by the monitor)."""
        if total < self.value:
            raise ValueError(
                f"counter {self.name!r} cannot go backward "
                f"({total} < {self.value})"
            )
        self.value = total


class Gauge:
    """Instantaneous value that may go up or down."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelItems = ()):
        self.name = name
        self.labels = labels
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, delta: float = 1) -> None:
        self.value += delta

    def dec(self, delta: float = 1) -> None:
        self.value -= delta


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


Metric = Any  # Counter | Gauge | Histogram


class MetricsRegistry:
    """Get-or-create registry of metrics keyed by ``(name, labels)``.

    One metric *family* (name) has one type and one help string; label
    sets distinguish instances (typically ``{"process": addr}``).
    Iteration order is sorted, so rendering the registry is
    deterministic regardless of creation order.
    """

    def __init__(self) -> None:
        self._metrics: dict[MetricKey, Metric] = {}
        #: name -> (type string, help string)
        self._families: dict[str, tuple[str, str]] = {}

    # -- creation ---------------------------------------------------------

    def _family(self, name: str, kind: str, help: str) -> None:
        existing = self._families.get(name)
        if existing is None:
            self._families[name] = (kind, help)
        elif existing[0] != kind:
            raise ValueError(
                f"metric {name!r} is a {existing[0]}, not a {kind}"
            )

    def _adopt(self, key: MetricKey, cls, *args) -> Metric:
        """Get-or-create ``key`` in a family the caller has already
        checked with :meth:`_family` (the monitor checks each PVAR row's
        family once, not once per process)."""
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = cls(key[0], key[1], *args)
        return metric

    def _get_or_create(self, key: MetricKey, kind: str, help: str, cls, *args):
        self._family(key[0], kind, help)
        return self._adopt(key, cls, *args)

    # Prebuilt-key variants: callers that intern their ``(name, labels)``
    # keys (the monitor) skip the label sort and share one key tuple
    # between the registry and the :class:`SeriesStore`.

    def _counter_at(self, key: MetricKey, help: str = "") -> Counter:
        return self._get_or_create(key, "counter", help, Counter)

    def _gauge_at(self, key: MetricKey, help: str = "") -> Gauge:
        return self._get_or_create(key, "gauge", help, Gauge)

    def _histogram_at(
        self,
        key: MetricKey,
        help: str = "",
        bounds: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(key, "histogram", help, Histogram, bounds)

    def counter(
        self, name: str, help: str = "", labels: Optional[dict] = None
    ) -> Counter:
        return self._counter_at((name, _label_items(labels)), help)

    def gauge(
        self, name: str, help: str = "", labels: Optional[dict] = None
    ) -> Gauge:
        return self._gauge_at((name, _label_items(labels)), help)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Optional[dict] = None,
        bounds: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._histogram_at((name, _label_items(labels)), help, bounds)

    # -- introspection ----------------------------------------------------

    def family_info(self, name: str) -> tuple[str, str]:
        return self._families[name]

    def collect(self) -> Iterator[tuple[str, str, str, list[Metric]]]:
        """Yield ``(name, kind, help, metrics)`` per family, sorted by
        family name, metrics sorted by labels."""
        by_family: dict[str, list[Metric]] = {}
        for (name, _labels), metric in self._metrics.items():
            by_family.setdefault(name, []).append(metric)
        for name in sorted(by_family):
            kind, help = self._families[name]
            metrics = sorted(by_family[name], key=lambda m: m.labels)
            yield name, kind, help, metrics

    def __len__(self) -> int:
        return len(self._metrics)


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
    """All time-series of one monitor, keyed like registry metrics."""

    def __init__(self, capacity: int = 4096):
        self.capacity = capacity
        self._series: dict[MetricKey, TimeSeries] = {}

    def _series_at(self, key: MetricKey) -> TimeSeries:
        """Get-or-create by a prebuilt ``(name, labels)`` key."""
        ts = self._series.get(key)
        if ts is None:
            ts = self._series[key] = TimeSeries(key[0], key[1], self.capacity)
        return ts

    def series(self, name: str, labels: Optional[dict] = None) -> TimeSeries:
        return self._series_at((name, _label_items(labels)))

    def all_series(self) -> list[TimeSeries]:
        """Every series, sorted by ``(name, labels)`` for stable export."""
        return [self._series[key] for key in sorted(self._series)]

    @property
    def total_samples(self) -> int:
        return sum(len(ts) for ts in self._series.values())

    def __len__(self) -> int:
        return len(self._series)
