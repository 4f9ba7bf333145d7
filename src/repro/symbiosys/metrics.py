"""Online metrics primitives for the always-on telemetry layer.

SYMBIOSYS's pitch is *always-on, low-overhead* measurement, yet the
original workflow is post-mortem: profiles and traces materialize after
the run.  This module is the in-flight half: bounded ring buffers of
sample rows (:class:`RowBlock`, one per sampling plan, and the
width-one :class:`TimeSeries`) and fixed-bucket :class:`Histogram` s,
held with their metric families by the :class:`SeriesStore` the
:class:`~repro.symbiosys.monitor.Monitor` fills while the simulation is
still running.  A sampled counter or gauge has no value object of its
own: its series is the metric, and a snapshot reads the latest sample.

Design constraints (all load-bearing for the determinism tests):

* No wall-clock reads anywhere -- every sample is stamped with the
  *simulated* time handed in by the caller.
* Bounded memory -- blocks are ring buffers; once full they drop
  the oldest row and count the loss instead of growing.
* Deterministic iteration -- stores render their contents in sorted
  ``(name, labels)`` order so exports are byte-stable.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Iterable, Optional

__all__ = [
    "Histogram",
    "RowBlock",
    "SeriesStore",
    "SeriesView",
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
        # Every per-process depth histogram shares the default tuple.
        self.bounds = (
            bounds if bounds is DEFAULT_BUCKETS else tuple(float(b) for b in bounds)
        )
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


class RowBlock:
    """A bounded ring of sample rows ``(t, v_0, ..., v_{k-1})``: every
    series one sampling plan (or one width-one series) records.

    ``names`` names the ``k`` columns; a sampling plan passes the
    column names of its schema's shared row template, one tuple for
    every process with the same PVAR schema.  Storage is one ``array('d')`` of
    rows, so a tick of a whole process is one C-level ``extend`` and a
    block costs one tracked object however many series it holds.

    A column starts at its first non-None value (a LOWWATERMARK PVAR
    has no sample until its first watermark): ``starts[c]`` is that
    row's index, -1 before.  A None in a started column is a gap, kept
    by row index in :attr:`gaps` (never as a NaN, which is a value a
    series can hold).  Past ``capacity`` rows the oldest row is evicted,
    so each column keeps the samples of the last ``capacity`` rows and
    counts the rest as dropped.
    """

    __slots__ = (
        "names", "labels", "capacity", "rows", "head", "n", "starts",
        "unstarted", "gaps",
    )

    def __init__(
        self, names: tuple[str, ...], labels: LabelItems = (), capacity: int = 4096
    ):
        if capacity < 1:
            raise ValueError("time-series capacity must be positive")
        self.names = names
        self.labels = labels
        self.capacity = capacity
        self.rows = array("d")
        self.head = 0  # buffer index of the oldest row once wrapped
        #: Rows appended so far; row ``i`` is the ``i``-th append.
        self.n = 0
        self.starts = array("q", [-1]) * len(names)
        self.unstarted = len(names)
        #: column -> [gaps ever, array of recent gap row indices], or
        #: None while no started column has missed a row.
        self.gaps: Optional[dict[int, list]] = None

    def append_row(self, row) -> None:
        """Append one row ``(t, v_0, ..., v_{k-1})``; a None value is no
        sample of that column."""
        n = self.n
        if self.unstarted or None in row:
            row = self._mark_missing(row, n)
        rows = self.rows
        if n < self.capacity:
            rows.extend(row)
        else:
            head = self.head
            end = head + len(row)
            rows[head:end] = array("d", row)
            self.head = 0 if end == len(rows) else end
        self.n = n + 1

    def _mark_missing(self, row, n: int) -> list:
        """Start the columns whose first value this row holds, record a
        gap for each started column it misses; None becomes 0.0."""
        row = list(row)
        starts = self.starts
        for c in range(len(starts)):
            if row[c + 1] is None:
                row[c + 1] = 0.0
                if starts[c] >= 0:
                    self._add_gap(c, n)
            elif starts[c] < 0:
                starts[c] = n
                self.unstarted -= 1
        return row

    def _add_gap(self, c: int, n: int) -> None:
        if self.gaps is None:
            self.gaps = {}
        entry = self.gaps.get(c)
        if entry is None:
            entry = self.gaps[c] = [0, array("q")]
        entry[0] += 1
        recent = entry[1]
        recent.append(n)
        if len(recent) > 2 * self.capacity:  # forget evicted rows
            first = n + 1 - self.capacity
            entry[1] = array("q", (r for r in recent if r >= first))

    def _first_row(self) -> int:
        """Index of the oldest retained row."""
        return self.n - len(self.rows) // (len(self.names) + 1)

    def _gap_rows(self, c: int):
        entry = self.gaps.get(c) if self.gaps is not None else None
        return entry[1] if entry is not None else ()

    def column(self, c: int) -> list[tuple[float, float]]:
        """Chronological ``(time, value)`` samples of column ``c``."""
        start = self.starts[c]
        if start < 0:
            return []
        rows = self.rows
        head = self.head
        if head:
            rows = rows[head:] + rows[:head]
        stride = len(self.names) + 1
        first = self._first_row()
        lo = max(first, start)
        off = (lo - first) * stride
        pairs = list(zip(rows[off::stride], rows[off + c + 1 :: stride]))
        gaps = self._gap_rows(c)
        if gaps:
            skip = set(gaps)
            pairs = [p for r, p in enumerate(pairs, lo) if r not in skip]
        return pairs

    def column_latest(self, c: int) -> Optional[tuple[float, float]]:
        """Newest sample of column ``c``, or None."""
        if self.starts[c] < 0:
            return None
        gaps = self._gap_rows(c)
        if gaps and gaps[-1] == self.n - 1:
            pairs = self.column(c)
            return pairs[-1] if pairs else None
        rows = self.rows
        end = self.head or len(rows)  # the newest row ends at the head
        off = end - len(self.names) - 1
        return (rows[off], rows[off + c + 1])

    def column_len(self, c: int) -> int:
        """Samples column ``c`` retains."""
        start = self.starts[c]
        if start < 0:
            return 0
        lo = max(self._first_row(), start)
        return self.n - lo - sum(1 for r in self._gap_rows(c) if r >= lo)

    def column_total(self, c: int) -> int:
        """Samples ever appended to column ``c``, dropped ones included."""
        start = self.starts[c]
        if start < 0:
            return 0
        entry = self.gaps.get(c) if self.gaps is not None else None
        return self.n - start - (entry[0] if entry is not None else 0)


class TimeSeries(RowBlock):
    """A width-one block: one bounded ``(time, value)`` series with its
    own name, written by :meth:`append` (the fabric pair, a detector's
    own series such as the shard balancer's ``shard_ops``).

    Appending past capacity evicts the oldest sample and increments
    :attr:`dropped`; the window always holds the *latest* ``capacity``
    samples, which is what live monitoring wants.  Values are coerced
    to float.
    """

    __slots__ = ()

    def __init__(self, name: str, labels: LabelItems = (), capacity: int = 4096):
        super().__init__((name,), labels, capacity)

    @property
    def name(self) -> str:
        return self.names[0]

    def append(self, t: float, value: float) -> None:
        self.append_row((t, value))

    def samples(self) -> list[tuple[float, float]]:
        """Chronological ``(time, value)`` list of the retained window."""
        return self.column(0)

    def latest(self) -> Optional[tuple[float, float]]:
        return self.column_latest(0)

    @property
    def dropped(self) -> int:
        return self.column_total(0) - self.column_len(0)

    def __len__(self) -> int:
        return self.column_len(0)


class SeriesView:
    """Read-only view of one series held in columns of row blocks.

    ``segments`` are the ``(block, column)`` pairs the series spans,
    oldest first: a sampling plan rebuilt mid-run starts a new block,
    and a series carried over reads both.  The view keeps the last
    ``capacity`` samples across its segments and counts the rest in
    :attr:`dropped`, as one ring of that capacity would.
    """

    __slots__ = ("name", "labels", "capacity", "_segments")

    def __init__(
        self, name: str, labels: LabelItems, capacity: int, segments: list
    ):
        self.name = name
        self.labels = labels
        self.capacity = capacity
        self._segments = segments

    def samples(self) -> list[tuple[float, float]]:
        out: list[tuple[float, float]] = []
        for block, c in self._segments:
            out.extend(block.column(c))
        return out[-self.capacity :] if len(out) > self.capacity else out

    def latest(self) -> Optional[tuple[float, float]]:
        for block, c in reversed(self._segments):
            last = block.column_latest(c)
            if last is not None:
                return last
        return None

    @property
    def dropped(self) -> int:
        total = sum(block.column_total(c) for block, c in self._segments)
        return total - len(self)

    def __len__(self) -> int:
        n = sum(block.column_len(c) for block, c in self._segments)
        return min(n, self.capacity)


class SeriesStore:
    """Every monitored value of one monitor: its time-series and
    histograms, and the metric families they belong to.

    Samples live in :class:`RowBlock` s, indexed by label set: one per
    sampling plan (a whole process's series) and one
    :class:`TimeSeries` per series written on its own.
    :meth:`series` and :meth:`all_series` build the per-series views on
    demand.

    One family (name) has one type (``counter``, ``gauge`` or
    ``histogram``) and one help string; label sets distinguish its
    instances (typically ``{"process": addr}``).  A series whose name
    has no family (a detector's own, such as the shard balancer's
    ``shard_ops``) is exported to CSV only.
    """

    def __init__(self, capacity: int = 4096):
        self.capacity = capacity
        #: labels -> the blocks carrying them, in creation order.
        self._blocks: dict[LabelItems, list[RowBlock]] = {}
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

    def _index(self, block: RowBlock) -> RowBlock:
        blocks = self._blocks.get(block.labels)
        if blocks is None:
            self._blocks[block.labels] = [block]
        else:
            blocks.append(block)
        return block

    def add_block(self, names: tuple[str, ...], labels: LabelItems) -> RowBlock:
        """A new block of ``names`` columns under ``labels``."""
        return self._index(RowBlock(names, labels, self.capacity))

    def series(
        self, name: str, labels: Optional[dict] = None
    ) -> "TimeSeries | SeriesView":
        """The series ``(name, labels)``: its view if a block holds it,
        else a new :class:`TimeSeries` (get-or-create)."""
        items = _label_items(labels)
        segments = [
            (block, block.names.index(name))
            for block in self._blocks.get(items, ())
            if name in block.names
        ]
        if not segments:
            return self._index(TimeSeries(name, items, self.capacity))
        return self._view(name, items, segments)

    def _view(self, name: str, labels: LabelItems, segments: list):
        if len(segments) == 1 and type(segments[0][0]) is TimeSeries:
            return segments[0][0]
        return SeriesView(name, labels, self.capacity, segments)

    def _segments(self) -> dict[MetricKey, list]:
        """``(name, labels)`` -> segments of every series with a sample
        (or written on its own), unsorted."""
        found: dict[MetricKey, list] = {}
        for labels, blocks in self._blocks.items():
            for block in blocks:
                own = type(block) is TimeSeries
                for c, start in enumerate(block.starts):
                    if start >= 0 or own:
                        key = (block.names[c], labels)
                        segs = found.get(key)
                        if segs is None:
                            found[key] = [(block, c)]
                        else:
                            segs.append((block, c))
        return found

    def add_histogram(
        self,
        name: str,
        labels: LabelItems = (),
        bounds: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        hist = Histogram(name, labels, bounds)
        self.histograms.append(hist)
        return hist

    def all_series(self) -> list["TimeSeries | SeriesView"]:
        """Every series, sorted by ``(name, labels)`` for stable export."""
        found = self._segments()
        return [self._view(*key, found[key]) for key in sorted(found)]

    @property
    def total_samples(self) -> int:
        return sum(len(ts) for ts in self.all_series())

    def __len__(self) -> int:
        return len(self._segments())
