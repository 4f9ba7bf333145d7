"""Unit and property tests for callpath ancestry encoding."""

import pytest
from hypothesis import given, strategies as st

from repro.symbiosys import (
    CallpathRegistry,
    MAX_DEPTH,
    components,
    hash16,
    push,
)


def test_hash16_is_stable_and_nonzero():
    assert hash16("sdskv_put_packed") == hash16("sdskv_put_packed")
    for name in ("a", "b", "mobject_write_op", ""):
        assert 1 <= hash16(name) <= 0xFFFF


def test_push_from_root():
    code = push(0, "op")
    assert code == hash16("op")
    assert len(components(code)) == 1


def test_push_chains_shift_left_16():
    c1 = push(0, "a")
    c2 = push(c1, "b")
    assert c2 == ((c1 << 16) | hash16("b"))
    assert components(c2) == [hash16("a"), hash16("b")]


def test_depth_counts_components():
    code = 0
    for i, name in enumerate(["a", "b", "c", "d"]):
        code = push(code, name)
        assert len(components(code)) == i + 1


def test_depth_overflow_drops_oldest():
    """A fifth push loses the first ancestor -- the paper's depth-4
    limitation, made explicit."""
    names = ["a", "b", "c", "d", "e"]
    code = 0
    for name in names:
        code = push(code, name)
    assert len(components(code)) == MAX_DEPTH
    assert components(code) == [hash16(n) for n in names[1:]]


def test_components_of_root():
    assert components(0) == []
    assert len(components(0)) == 0


def test_out_of_range_codes_rejected():
    with pytest.raises(ValueError):
        push(-1, "x")
    with pytest.raises(ValueError):
        push(1 << 64, "x")
    with pytest.raises(ValueError):
        components(-1)


def test_registry_decode_known_chain():
    reg = CallpathRegistry()
    reg.register("mobject_write_op")
    reg.register("sdskv_put_rpc")
    code = push(push(0, "mobject_write_op"), "sdskv_put_rpc")
    assert reg.decode(code) == "mobject_write_op -> sdskv_put_rpc"


def test_registry_decode_root():
    assert CallpathRegistry().decode(0) == "<root>"


def test_registry_unknown_component():
    reg = CallpathRegistry()
    code = push(0, "never_registered")
    assert "unknown" in reg.decode(code)


def test_registry_collision_flagged():
    reg = CallpathRegistry()
    reg.register("x")
    # Forge a collision by injecting a second name at the same hash.
    h = hash16("x")
    reg._names[h] = "x"
    reg.collisions.setdefault(h, {"x"}).add("y")
    assert "ambiguous" in reg.name_of(h)


@given(st.lists(st.text(min_size=1, max_size=30), min_size=1, max_size=4))
def test_property_chain_roundtrip_within_depth(names):
    """Up to depth 4, components() recovers exactly the pushed sequence."""
    code = 0
    for name in names:
        code = push(code, name)
    assert components(code) == [hash16(n) for n in names]


@given(st.lists(st.text(min_size=1, max_size=30), min_size=5, max_size=12))
def test_property_deep_chain_keeps_last_four(names):
    code = 0
    for name in names:
        code = push(code, name)
    assert components(code) == [hash16(n) for n in names[-4:]]


@given(st.integers(0, (1 << 64) - 1), st.text(min_size=1, max_size=20))
def test_property_push_stays_in_64_bits(code, name):
    assert 0 <= push(code, name) < (1 << 64)


@given(st.text(min_size=0, max_size=50))
def test_property_hash16_range(name):
    assert 1 <= hash16(name) <= 0xFFFF
