"""Tests for interval-distribution tracking (reservoir + percentiles)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.symbiosys.profiling import RESERVOIR_SIZE, IntervalStats

from .conftest import interval_summary


def test_small_sample_percentiles_exact():
    s = interval_summary(float(v) for v in range(1, 11))  # 1..10
    assert s.percentile(0) == 1.0
    assert s.percentile(100) == 10.0
    assert 4.0 <= s.percentile(50) <= 7.0


def test_reservoir_bounded():
    s = interval_summary(float(v) for v in range(10_000))
    assert len(s.samples()) == RESERVOIR_SIZE
    assert s.count == 10_000


def test_percentile_empty_and_bounds():
    s = IntervalStats()
    assert s.percentile(50) == 0.0
    with pytest.raises(ValueError):
        s.percentile(-1)
    with pytest.raises(ValueError):
        s.percentile(101)


def test_extremes_always_exact():
    s = interval_summary(float(v) for v in range(100_000))
    assert s.percentile(0) == 0.0
    assert s.percentile(100) == 99_999.0


def test_reservoir_is_deterministic():
    a = interval_summary(float(v) for v in range(1000))
    b = interval_summary(float(v) for v in range(1000))
    assert sorted(a.samples()) == sorted(b.samples())


def test_percentile_estimate_reasonable_on_uniform():
    s = interval_summary(float(v) for v in range(100_000))
    # Uniform 0..1e5: the reservoir median should land near 5e4 (a wide
    # tolerance -- 64 samples).
    assert 2e4 < s.percentile(50) < 8e4
    assert s.percentile(90) > s.percentile(50) > s.percentile(10)


def test_merge_combines_reservoirs():
    a = interval_summary(float(v) for v in range(10))
    b = interval_summary(float(v) for v in range(1000, 1010))
    a.merge(b)
    samples = a.samples()
    assert len(samples) == 20
    assert any(v < 100 for v in samples)
    assert any(v >= 1000 for v in samples)


@given(st.lists(st.floats(0, 1e6, allow_nan=False), min_size=1, max_size=200))
@settings(max_examples=50)
def test_property_reservoir_subset_of_inputs(values):
    s = interval_summary(values)
    assert len(s.samples()) == min(len(values), RESERVOIR_SIZE)
    for v in s.samples():
        assert v in values


@given(st.lists(st.floats(0, 1e6, allow_nan=False), min_size=1, max_size=200))
@settings(max_examples=50)
def test_property_percentiles_monotone(values):
    s = interval_summary(values)
    qs = [0, 10, 25, 50, 75, 90, 100]
    ps = [s.percentile(q) for q in qs]
    assert ps == sorted(ps)
    assert ps[0] == min(values)
    assert ps[-1] == max(values)
