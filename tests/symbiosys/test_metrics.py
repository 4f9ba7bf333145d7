"""Unit tests for the metrics primitives and text exporters."""

import math

import pytest

from repro.symbiosys.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SeriesStore,
    TimeSeries,
)
from repro.symbiosys.export import series_to_csv, to_prometheus


# ------------------------------------------------------------ primitives


def test_counter_monotonic():
    c = Counter("c")
    c.inc()
    c.inc(2)
    assert c.value == 3
    c.set_total(10)
    assert c.value == 10
    with pytest.raises(ValueError):
        c.set_total(5)


def test_gauge_moves_both_ways():
    g = Gauge("g")
    g.set(4)
    g.inc()
    g.dec(2)
    assert g.value == 3


def test_histogram_buckets_and_cumulative():
    h = Histogram("h", bounds=(1, 10, 100))
    for v in (0.5, 5, 50, 500):
        h.observe(v)
    cum = dict(h.cumulative())
    assert cum[1] == 1
    assert cum[10] == 2
    assert cum[100] == 3
    assert cum[math.inf] == 4
    assert h.count == 4
    assert h.total == 555.5


def test_registry_get_or_create_and_kind_conflicts():
    reg = MetricsRegistry()
    a = reg.counter("x", "help", labels={"p": "1"})
    b = reg.counter("x", "help", labels={"p": "1"})
    assert a is b
    assert reg.counter("x", "help", labels={"p": "2"}) is not a
    with pytest.raises(ValueError):
        reg.gauge("x", "help")  # same family name, different kind


def test_registry_collect_sorted():
    reg = MetricsRegistry()
    reg.gauge("zeta", "")
    reg.counter("alpha", "")
    names = [name for name, _, _, _ in reg.collect()]
    assert names == ["alpha", "zeta"]


# ------------------------------------------------------------ time-series


def test_ring_buffer_evicts_oldest():
    ts = TimeSeries("s", capacity=3)
    for i in range(5):
        ts.append(float(i), i * 10.0)
    assert ts.dropped == 2
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
            assert ts.dropped == i + 1 - len(ref)


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
    reg = MetricsRegistry()
    reg.counter("reqs_total", "Total requests", labels={"process": "svr"}).inc(7)
    reg.gauge("depth", "Queue depth").set(2.5)
    h = reg.histogram("lat", "Latency", labels={"p": "a"}, bounds=(1, 2))
    h.observe(0.5)
    h.observe(3)
    text = to_prometheus(reg)
    lines = text.splitlines()
    assert "# TYPE reqs_total counter" in lines
    assert '# HELP reqs_total Total requests' in lines
    assert 'reqs_total{process="svr"} 7' in lines
    assert "depth 2.5" in lines
    assert 'lat_bucket{p="a",le="1"} 1' in lines
    assert 'lat_bucket{p="a",le="+Inf"} 2' in lines
    assert 'lat_sum{p="a"} 3.5' in lines
    assert 'lat_count{p="a"} 2' in lines
    assert text.endswith("\n")


def test_prometheus_escapes_label_values():
    reg = MetricsRegistry()
    reg.gauge("g", "", labels={"k": 'a"b\\c'}).set(1)
    text = to_prometheus(reg)
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
