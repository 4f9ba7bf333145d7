"""A profile store summarises its sample columns in bulk (on read, or at
its fold cap); the summaries must equal one streaming add per sample.

The reference below is the per-add summary written out independently of
``repro.symbiosys.profiling``, so these tests do not compare the store
with itself.
"""

import bisect
import math
import random

import pytest

from repro.symbiosys.profiling import (
    FOLD_CAP,
    INTERVALS,
    RESERVOIR_SIZE,
    ProfileKey,
    ProfileStore,
)

_MASK64 = (1 << 64) - 1


def _priority(seq):
    z = (seq + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class RefStats:
    """Per-add summary: count/total/min/max and the top-64 reservoir."""

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        self.reservoir = []

    def add(self, value):
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        self._offer(_priority(self.count), value)

    def _offer(self, priority, value):
        res = self.reservoir
        if len(res) < RESERVOIR_SIZE:
            res.append((priority, value))
            if len(res) == RESERVOIR_SIZE:
                res.sort()
        elif priority > res[0][0]:
            res.pop(0)
            bisect.insort(res, (priority, value))

    def merge(self, other):
        self.count += other.count
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        combined = self.reservoir + other.reservoir
        if len(combined) >= RESERVOIR_SIZE:
            combined.sort()
            combined = combined[-RESERVOIR_SIZE:]
        self.reservoir = combined


class RefStore:
    def __init__(self):
        self.data = {}

    def add(self, key, interval, value):
        self.data.setdefault(key, {}).setdefault(interval, RefStats()).add(value)

    def merge(self, other):
        for key, by_interval in other.data.items():
            mine = self.data.setdefault(key, {})
            for interval, stats in by_interval.items():
                if interval not in mine:
                    mine[interval] = RefStats()
                mine[interval].merge(stats)


def _same_float(a, b):
    """Equal, and the same zero: -0.0 == 0.0 would hide a swapped sign."""
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def assert_same(store, ref):
    assert list(store.keys()) == list(ref.data)
    assert len(store) == len(ref.data)
    for key, ref_intervals in ref.data.items():
        intervals = store.intervals_for(key)
        assert list(intervals) == list(ref_intervals)
        for interval, want in ref_intervals.items():
            got = intervals[interval]
            assert got.count == want.count
            assert got.total == want.total
            assert _same_float(got.minimum, want.minimum)
            assert _same_float(got.maximum, want.maximum)
            assert got._reservoir == want.reservoir
            # samples() in the reservoir's order, signs of zero included.
            samples = got.samples()
            assert len(samples) == len(want.reservoir)
            for a, (_, b) in zip(samples, want.reservoir):
                assert _same_float(a, b)


def _value(rng):
    """Zeros of both signs, repeats and spread-out magnitudes."""
    roll = rng.random()
    if roll < 0.15:
        return rng.choice((0.0, -0.0))
    if roll < 0.35:
        return rng.choice((1.5, 2.5, 1e-6))
    if roll < 0.45:
        return rng.choice((1e16, -1e16, 1.0))
    return rng.uniform(-1e-3, 1e-3) * 10 ** rng.randint(-6, 3)


KEYS = [ProfileKey(1, "a", "b"), ProfileKey(2, "a", "c"), ProfileKey(1, "c", "b")]


@pytest.mark.parametrize("n", [0, 1, 5, RESERVOIR_SIZE - 1, RESERVOIR_SIZE,
                               RESERVOIR_SIZE + 1, 1000, FOLD_CAP + 517])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fold_equals_per_add_on_one_column(n, seed):
    rng = random.Random(seed * 7919 + n)
    store, ref = ProfileStore(), RefStore()
    key = KEYS[0]
    for _ in range(n):
        v = _value(rng)
        store.add(key, "origin_execution_time", v)
        ref.add(key, "origin_execution_time", v)
    assert_same(store, ref)


@pytest.mark.parametrize("seed", range(6))
def test_fold_equals_per_add_with_interleaved_reads(seed):
    rng = random.Random(seed)
    store, ref = ProfileStore(), RefStore()
    intervals = rng.sample(INTERVALS, 4)
    for _ in range(3 * FOLD_CAP):
        key = rng.choice(KEYS)
        interval = rng.choice(intervals)
        v = _value(rng)
        store.add(key, interval, v)
        ref.add(key, interval, v)
        roll = rng.random()
        if roll < 0.002:
            assert_same(store, ref)
        elif roll < 0.004:
            store.get(key, interval)
        elif roll < 0.006:
            list(store.keys())
    assert_same(store, ref)


def test_sequential_total_is_not_compensated():
    """1e16 + 1.0 rounds back to 1e16 one add at a time; a compensated
    sum (math.fsum, or sum() on Python 3.12+) would keep the 1.0."""
    store = ProfileStore()
    key = KEYS[0]
    for v in (1e16, 1.0, -1e16):
        store.add(key, "origin_execution_time", v)
    assert store.get(key, "origin_execution_time").total == 0.0


def test_equal_values_keep_the_first_seen_zero():
    store = ProfileStore()
    key = KEYS[0]
    for v in (0.0, -0.0, 0.0):
        store.add(key, "target_handler_time", v)
    for v in (-0.0, 0.0):
        store.add(key, "bulk_transfer_time", v)
    first = store.get(key, "target_handler_time")
    assert math.copysign(1.0, first.minimum) == 1.0
    assert math.copysign(1.0, first.maximum) == 1.0
    second = store.get(key, "bulk_transfer_time")
    assert math.copysign(1.0, second.minimum) == -1.0
    assert math.copysign(1.0, second.maximum) == -1.0


@pytest.mark.parametrize("seed", range(4))
def test_merge_equals_per_add_merge(seed):
    rng = random.Random(100 + seed)
    stores = [ProfileStore() for _ in range(3)]
    refs = [RefStore() for _ in range(3)]
    for store, ref in zip(stores, refs):
        for _ in range(rng.choice((3, RESERVOIR_SIZE, 700, FOLD_CAP + 9))):
            key = rng.choice(KEYS)
            interval = rng.choice(INTERVALS[:3])
            v = _value(rng)
            store.add(key, interval, v)
            ref.add(key, interval, v)
    merged, merged_ref = ProfileStore(), RefStore()
    for store, ref in zip(stores, refs):
        merged.merge(store)
        merged_ref.merge(ref)
    assert_same(merged, merged_ref)
    # A store merged into, then added to, continues the sample numbering.
    for _ in range(300):
        key = rng.choice(KEYS)
        v = _value(rng)
        merged.add(key, "origin_execution_time", v)
        merged_ref.data.setdefault(key, {}).setdefault(
            "origin_execution_time", RefStats()
        ).add(v)
    assert_same(merged, merged_ref)
    for store, ref in zip(stores, refs):
        assert_same(store, ref)


def _pending(store):
    return sum(
        len(column)
        for columns in store._columns.values()
        for column in columns.values()
    )


@pytest.mark.parametrize("seed", range(3))
def test_store_never_holds_more_than_the_fold_cap(seed):
    """Hook-shaped hand-outs: each appends at most one sample per
    interval to its row.  The unsummarised samples stay within the cap,
    and the summaries still equal the per-add reference."""
    rng = random.Random(seed)
    store, ref = ProfileStore(), RefStore()
    most = 0
    for _ in range(4000):
        key = rng.choice(KEYS)
        row = store.row((key.callpath, key.origin, key.target))
        for interval in rng.sample(INTERVALS, rng.randint(1, len(INTERVALS))):
            v = _value(rng)
            row[interval].append(v)
            ref.add(key, interval, v)
        pending = _pending(store)
        assert pending <= FOLD_CAP
        most = max(most, pending)
    assert most > FOLD_CAP // 2
    assert_same(store, ref)
    assert _pending(store) == 0
