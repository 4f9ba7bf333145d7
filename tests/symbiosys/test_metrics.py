"""Unit tests for the metrics primitives and text exporters."""

import math
from types import SimpleNamespace

import pytest

from repro.sim import Simulator
from repro.symbiosys.metrics import (
    DEFAULT_BUCKETS,
    Histogram,
    SeriesStore,
    TimeSeries,
)
from repro.symbiosys.export import series_to_csv, to_prometheus
from repro.symbiosys.monitor import Monitor


def _fabric_monitor():
    """A monitor of no process over a stand-in fabric whose byte
    counts the test sets."""
    fabric = SimpleNamespace(inflight_bytes=0, total_bytes=0)
    return Monitor(Simulator(), fabric=fabric), fabric


# ------------------------------------------------------------ primitives


def test_counter_monotonic():
    monitor, fabric = _fabric_monitor()
    for t, total in ((0.0, 3), (1.0, 3), (2.0, 10)):
        fabric.total_bytes = total
        monitor.sample(t)
    fabric.total_bytes = 5
    with pytest.raises(ValueError, match="fabric_total_bytes"):
        monitor.sample(3.0)
    series = monitor.store.series("fabric_total_bytes")
    assert [v for _, v in series.samples()] == [3.0, 3.0, 10.0]
    assert "fabric_total_bytes 10" in to_prometheus(monitor).splitlines()


def test_gauge_moves_both_ways():
    monitor, fabric = _fabric_monitor()
    for t, inflight in ((0.0, 4), (1.0, 7), (2.0, 3)):
        fabric.inflight_bytes = inflight
        monitor.sample(t)
    series = monitor.store.series("fabric_inflight_bytes")
    assert [v for _, v in series.samples()] == [4.0, 7.0, 3.0]
    assert "fabric_inflight_bytes 3" in to_prometheus(monitor).splitlines()


def test_histogram_buckets_and_cumulative():
    h = Histogram("h")
    for v in (0.5, 5, 50, 500):
        h.observe(v)
    cum = dict(h.cumulative())
    assert [b for b, _ in h.cumulative()] == [*DEFAULT_BUCKETS, math.inf]
    assert cum[1] == 1
    assert cum[8] == 2
    assert cum[32] == 2
    assert cum[64] == 3
    assert cum[128] == 3
    assert cum[math.inf] == 4
    assert h.count == 4
    assert h.total == 555.5


def test_store_get_or_create_and_family_kind_conflicts():
    store = SeriesStore()
    a = store.series("x", {"p": "1"})
    assert store.series("x", {"p": "1"}) is a
    assert store.series("x", {"p": "2"}) is not a
    store.family("x", "counter", "help")
    store.family("x", "counter", "help")  # re-declaring is fine
    assert store.family_info("x") == ("counter", "help")
    assert store.family_info("y") is None
    with pytest.raises(ValueError):
        store.family("x", "gauge", "help")  # same family name, different kind


def test_monitor_collect_sorted():
    monitor = Monitor(Simulator())
    store = monitor.store
    store.family("zeta", "gauge")
    store.family("alpha", "counter")
    store.series("zeta").append(0.0, 1.0)
    store.series("alpha", {"p": "b"}).append(0.0, 2.0)
    store.series("alpha", {"p": "a"}).append(0.0, 3.0)
    collected = [
        (name, [labels for labels, _ in instances])
        for name, _, _, instances in monitor.collect()
    ]
    assert collected == [
        ("alpha", [(("p", "a"),), (("p", "b"),)]),
        ("zeta", [()]),
    ]


# ------------------------------------------------------------ time-series


def test_ring_buffer_evicts_oldest():
    ts = TimeSeries("s", capacity=3)
    for i in range(5):
        ts.append(float(i), i * 10.0)
    assert len(ts) == 3
    assert ts.samples() == [(2.0, 20.0), (3.0, 30.0), (4.0, 40.0)]
    assert ts.latest() == (4.0, 40.0)


def test_ring_buffer_matches_a_bounded_deque_reference():
    from collections import deque

    for capacity in (1, 2, 3, 5):
        ts = TimeSeries("s", capacity=capacity)
        ref = deque(maxlen=capacity)
        assert ts.latest() is None and ts.samples() == [] and len(ts) == 0
        for i in range(3 * capacity + 2):
            ts.append(float(i), -0.5 * i)
            ref.append((float(i), -0.5 * i))
            assert ts.samples() == list(ref)
            assert ts.latest() == ref[-1]
            assert len(ts) == len(ref)


def test_series_store_keys_and_totals():
    store = SeriesStore(capacity=8)
    store.series("a", {"p": "x"}).append(0.0, 1.0)
    store.series("a", {"p": "x"}).append(1.0, 2.0)
    store.series("b").append(0.0, 3.0)
    assert len(store) == 2
    assert store.total_samples == 3
    names = [s.name for s in store.all_series()]
    assert names == ["a", "b"]


# ------------------------------------------------------------ exporters


def test_prometheus_format():
    monitor = Monitor(Simulator())
    store = monitor.store
    store.family("reqs_total", "counter", "Total requests")
    store.series("reqs_total", {"process": "svr"}).append(0.0, 7)
    store.family("depth", "gauge", "Queue depth")
    store.series("depth").append(0.0, 2.5)
    store.family("lat", "histogram", "Latency")
    h = store.add_histogram("lat", (("p", "a"),))
    h.observe(0.5)
    h.observe(3)
    store.series("undeclared").append(0.0, 1.0)  # CSV-only
    text = to_prometheus(monitor)
    lines = text.splitlines()
    assert "# TYPE reqs_total counter" in lines
    assert '# HELP reqs_total Total requests' in lines
    assert 'reqs_total{process="svr"} 7' in lines
    assert "depth 2.5" in lines
    assert 'lat_bucket{p="a",le="1"} 1' in lines
    assert 'lat_bucket{p="a",le="4"} 2' in lines
    assert 'lat_bucket{p="a",le="+Inf"} 2' in lines
    assert 'lat_sum{p="a"} 3.5' in lines
    assert 'lat_count{p="a"} 2' in lines
    assert "undeclared" not in text
    assert text.endswith("\n")


def test_prometheus_escapes_label_values():
    monitor = Monitor(Simulator())
    monitor.store.family("g", "gauge")
    monitor.store.series("g", {"k": 'a"b\\c'}).append(0.0, 1)
    text = to_prometheus(monitor)
    assert 'k="a\\"b\\\\c"' in text


def test_series_csv_shape():
    store = SeriesStore()
    store.series("m", {"p": "x"}).append(0.001, 4)
    store.series("m", {"p": "x"}).append(0.002, 5.5)
    text = series_to_csv(store)
    lines = text.strip().splitlines()
    assert lines[0] == "name,labels,time,value"
    assert lines[1] == "m,p=x,0.001,4"
    assert lines[2] == "m,p=x,0.002,5.5"


def test_series_csv_renders_a_nan_sample():
    store = SeriesStore()
    store.series("m").append(0.001, math.nan)
    store.series("m").append(0.002, 3.0)
    lines = series_to_csv(store).splitlines()
    assert lines[1:] == ["m,,0.001,NaN", "m,,0.002,3"]


def test_prometheus_renders_a_nan_sample():
    monitor = Monitor(Simulator())
    monitor.store.family("depth", "gauge")
    monitor.store.series("depth", {"p": "x"}).append(0.0, math.nan)
    assert 'depth{p="x"} NaN' in to_prometheus(monitor).splitlines()


# ------------------------------------------------------------ row blocks


class _ReferenceRing:
    """One ``(time, value)`` deque of ``capacity`` per series, with a
    drop count: the semantics the row blocks must reproduce."""

    def __init__(self, capacity):
        from collections import deque

        self.capacity = capacity
        self.rings = {}
        self._deque = deque

    def append(self, key, t, v):
        ring = self.rings.get(key)
        if ring is None:
            ring = self.rings[key] = self._deque(maxlen=self.capacity)
        ring.append((t, v))


def _assert_matches(store, ref):
    views = store.all_series()
    assert [(s.name, s.labels) for s in views] == sorted(ref.rings)
    for s in views:
        ring = ref.rings[(s.name, s.labels)]
        assert s.samples() == list(ring)
        assert s.latest() == ring[-1]
        assert len(s) == len(ring)
        again = store.series(s.name, dict(s.labels))
        assert again.samples() == list(ring)
    assert len(store) == len(ref.rings)
    assert store.total_samples == sum(len(r) for r in ref.rings.values())


def test_row_blocks_match_a_reference_ring():
    """Lazy column start, wraparound at capacity 3 and a width-one
    series written with ``append``, against one reference ring per
    series."""
    store = SeriesStore(capacity=3)
    ref = _ReferenceRing(3)
    labels = (("process", "p0"),)
    block = store.add_block(("a", "lw"), labels)
    for i in range(7):
        # "lw" is a LOWWATERMARK: no sample before its first watermark.
        values = [10.0 * i, None if i < 2 else -1.0 * i]
        block.append_row([float(i), *values])
        for name, v in zip(block.names, values):
            if v is not None:
                ref.append((name, labels), float(i), v)
        store.series("w", {"k": "x"}).append(float(i), 0.5 * i)
        ref.append(("w", (("k", "x"),)), float(i), 0.5 * i)
        _assert_matches(store, ref)


def test_row_block_nan_is_a_sample_and_a_lost_value_raises():
    """A sampled NaN is a sample; a None after a column's first value
    raises, naming the series, and the row is not recorded."""
    store = SeriesStore(capacity=8)
    block = store.add_block(("g", "h"), (("process", "p0"),))
    block.append_row([0.0, 1.0, None])
    block.append_row([1.0, float("nan"), None])
    with pytest.raises(ValueError, match="'g'.*p0"):
        block.append_row([2.0, None, 5.0])
    block.append_row([3.0, 2.0, 6.0])  # "h" starts on a recorded row
    g = store.series("g", {"process": "p0"})
    samples = g.samples()
    assert [t for t, _ in samples] == [0.0, 1.0, 3.0]
    assert samples[0][1] == 1.0 and math.isnan(samples[1][1])
    assert g.latest() == (3.0, 2.0)
    assert len(g) == 3
    assert store.series("h", {"process": "p0"}).samples() == [(3.0, 6.0)]


def test_a_series_held_by_another_block_is_refused():
    store = SeriesStore()
    labels = (("process", "p0"),)
    store.add_block(("a", "b"), labels)
    store.series("own", {"process": "p0"}).append(0.0, 1.0)
    store.add_block(("a", "b"), (("process", "p1"),))  # other labels
    for names in (("b", "c"), ("own",)):
        with pytest.raises(ValueError, match="already has a block"):
            store.add_block(names, labels)
    assert [s.name for s in store.all_series()] == ["own"]
