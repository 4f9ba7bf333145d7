"""Unit and property tests for RNG streams and local clocks."""

import pytest
from hypothesis import given, strategies as st

from repro.sim import LocalClock, RngRegistry


# ---------------------------------------------------------------- RNG


def test_same_seed_same_stream():
    a = RngRegistry(42).stream("net").random(8)
    b = RngRegistry(42).stream("net").random(8)
    assert (a == b).all()


def test_different_names_are_independent():
    reg = RngRegistry(42)
    a = reg.stream("net").random(8)
    b = reg.stream("cpu").random(8)
    assert not (a == b).all()


def test_different_seeds_differ():
    a = RngRegistry(1).stream("net").random(8)
    b = RngRegistry(2).stream("net").random(8)
    assert not (a == b).all()


def test_stream_is_cached():
    reg = RngRegistry(0)
    assert reg.stream("x") is reg.stream("x")


def test_stream_creation_order_does_not_matter():
    r1 = RngRegistry(7)
    r1.stream("a")
    a_then = r1.stream("b").random(4)
    r2 = RngRegistry(7)
    b_first = r2.stream("b").random(4)
    assert (a_then == b_first).all()


def test_fork_produces_distinct_streams():
    reg = RngRegistry(5)
    child = reg.fork("worker0")
    a = reg.stream("net").random(4)
    b = child.stream("net").random(4)
    assert not (a == b).all()


def test_fork_is_deterministic():
    a = RngRegistry(5).fork("w").stream("s").random(4)
    b = RngRegistry(5).fork("w").stream("s").random(4)
    assert (a == b).all()


# ---------------------------------------------------------------- Clock


def test_perfect_clock_is_identity():
    c = LocalClock()
    assert c.read(123.456) == 123.456


def test_offset_and_drift_applied():
    c = LocalClock(offset=10.0, drift=0.5)
    assert c.read(2.0) == pytest.approx(10.0 + 1.5 * 2.0)


def test_drift_must_keep_clock_monotone():
    with pytest.raises(ValueError):
        LocalClock(drift=-1.0)


@given(
    offset=st.floats(-1e3, 1e3, allow_nan=False),
    drift=st.floats(-0.5, 0.5, allow_nan=False),
    t1=st.floats(0, 1e6, allow_nan=False),
    dt=st.floats(1e-6, 1e3, allow_nan=False),
)
def test_clock_is_strictly_monotone(offset, drift, t1, dt):
    c = LocalClock(offset=offset, drift=drift)
    assert c.read(t1 + dt) > c.read(t1)
