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
Each series lives in exactly one column of one block, which holds a
sample of it in every row from its first sample on.

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
from typing import Optional

__all__ = [
    "Histogram",
    "RowBlock",
    "SeriesStore",
    "SeriesView",
    "TimeSeries",
]

#: Every histogram's bucket upper bounds (queue depths / event counts).
DEFAULT_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

LabelItems = tuple[tuple[str, str], ...]
MetricKey = tuple[str, LabelItems]


def _label_items(labels: Optional[dict[str, str]]) -> LabelItems:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Histogram:
    """Fixed-bucket cumulative histogram (Prometheus ``histogram``).

    The upper bucket edges are :data:`DEFAULT_BUCKETS`; an implicit
    ``+Inf`` bucket catches the rest.  Counts, sum, and bucket layout
    are all plain integers/floats -- no randomness, no wall clock.
    """

    __slots__ = ("name", "labels", "bucket_counts", "total", "count")

    def __init__(self, name: str, labels: LabelItems = ()):
        self.name = name
        self.labels = labels
        #: Per-bucket (non-cumulative) counts; the last one is +Inf.
        self.bucket_counts = [0] * (len(DEFAULT_BUCKETS) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(DEFAULT_BUCKETS, value)] += 1
        self.total += value
        self.count += 1

    def cumulative(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ``inf`` last --
        the ``_bucket{le=...}`` series of the Prometheus exposition."""
        out = []
        running = 0
        for bound, n in zip(DEFAULT_BUCKETS, self.bucket_counts):
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
    row's index, -1 before.  From then on every row holds a sample of
    it; a None in a started column raises before the row is recorded
    (a NaN is a value a series can hold).  Past ``capacity`` rows the
    oldest row is evicted, so each column keeps the samples of the last
    ``capacity`` rows.
    """

    __slots__ = (
        "names", "labels", "capacity", "rows", "head", "n", "starts", "unstarted",
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

    def append_row(self, row) -> None:
        """Append one row ``(t, v_0, ..., v_{k-1})``; a None value is no
        sample yet of an unstarted column."""
        n = self.n
        if self.unstarted or None in row:
            row = self._start_columns(row, n)
        rows = self.rows
        if n < self.capacity:
            rows.extend(row)
        else:
            head = self.head
            end = head + len(row)
            rows[head:end] = array("d", row)
            self.head = 0 if end == len(rows) else end
        self.n = n + 1

    def _start_columns(self, row, n: int) -> list:
        """Start the columns whose first value this row holds; None
        becomes 0.0 in a column not started yet and raises in one that
        has."""
        row = list(row)
        starts = self.starts
        started = []
        for c in range(len(starts)):
            if row[c + 1] is not None:
                if starts[c] < 0:
                    started.append(c)
            elif starts[c] >= 0:
                raise ValueError(
                    f"series {self.names[c]!r} {dict(self.labels)} has no "
                    f"value at t={row[0]} after its first sample"
                )
            else:
                row[c + 1] = 0.0
        for c in started:
            starts[c] = n
        self.unstarted -= len(started)
        return row

    def _first_row(self) -> int:
        """Index of the oldest retained row."""
        return self.n - len(self.rows) // (len(self.names) + 1)

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
        off = (max(first, start) - first) * stride
        return list(zip(rows[off::stride], rows[off + c + 1 :: stride]))

    def column_latest(self, c: int) -> Optional[tuple[float, float]]:
        """Newest sample of column ``c``, or None."""
        if self.starts[c] < 0:
            return None
        rows = self.rows
        end = self.head or len(rows)  # the newest row ends at the head
        off = end - len(self.names) - 1
        return (rows[off], rows[off + c + 1])

    def column_len(self, c: int) -> int:
        """Samples column ``c`` retains."""
        start = self.starts[c]
        if start < 0:
            return 0
        return self.n - max(self._first_row(), start)


class TimeSeries(RowBlock):
    """A width-one block: one bounded ``(time, value)`` series with its
    own name, written by :meth:`append` (the fabric pair, a detector's
    own series such as the shard balancer's ``shard_ops``).

    Appending past capacity evicts the oldest sample; the window always
    holds the *latest* ``capacity`` samples, which is what live
    monitoring wants.  Values are coerced to float.
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

    def __len__(self) -> int:
        return self.column_len(0)


class SeriesView:
    """Read-only view of one series: column ``column`` of ``block``."""

    __slots__ = ("block", "column")

    def __init__(self, block: RowBlock, column: int):
        self.block = block
        self.column = column

    @property
    def name(self) -> str:
        return self.block.names[self.column]

    @property
    def labels(self) -> LabelItems:
        return self.block.labels

    def samples(self) -> list[tuple[float, float]]:
        return self.block.column(self.column)

    def latest(self) -> Optional[tuple[float, float]]:
        return self.block.column_latest(self.column)

    def __len__(self) -> int:
        return self.block.column_len(self.column)


def _view(block: RowBlock, c: int) -> "TimeSeries | SeriesView":
    """A width-one series is its own view."""
    return block if type(block) is TimeSeries else SeriesView(block, c)


class SeriesStore:
    """Every monitored value of one monitor: its time-series and
    histograms, and the metric families they belong to.

    Samples live in :class:`RowBlock` s, indexed by label set: one per
    sampling plan (a whole process's series) and one
    :class:`TimeSeries` per series written on its own.  No two blocks
    hold the same ``(name, labels)``.  :meth:`series` and
    :meth:`all_series` build the per-series views on demand.

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
        """A new block of ``names`` columns under ``labels``; a series
        another block already holds raises."""
        for block in self._blocks.get(labels, ()):
            for name in block.names:
                if name in names:
                    raise ValueError(
                        f"series {name!r} {dict(labels)} already has a block"
                    )
        return self._index(RowBlock(names, labels, self.capacity))

    def series(
        self, name: str, labels: Optional[dict] = None
    ) -> "TimeSeries | SeriesView":
        """The series ``(name, labels)``: its view if a block holds it,
        else a new :class:`TimeSeries` (get-or-create)."""
        items = _label_items(labels)
        for block in self._blocks.get(items, ()):
            if name in block.names:
                return _view(block, block.names.index(name))
        return self._index(TimeSeries(name, items, self.capacity))

    def _columns(self) -> dict[MetricKey, tuple[RowBlock, int]]:
        """``(name, labels)`` -> ``(block, column)`` of every series
        with a sample (or written on its own), unsorted."""
        found = {}
        for labels, blocks in self._blocks.items():
            for block in blocks:
                own = type(block) is TimeSeries
                for c, start in enumerate(block.starts):
                    if start >= 0 or own:
                        found[(block.names[c], labels)] = (block, c)
        return found

    def add_histogram(self, name: str, labels: LabelItems = ()) -> Histogram:
        hist = Histogram(name, labels)
        self.histograms.append(hist)
        return hist

    def all_series(self) -> list["TimeSeries | SeriesView"]:
        """Every series, sorted by ``(name, labels)`` for stable export."""
        found = self._columns()
        return [_view(*found[key]) for key in sorted(found)]

    @property
    def total_samples(self) -> int:
        return sum(len(ts) for ts in self.all_series())

    def __len__(self) -> int:
        return len(self._columns())
