"""Tests for the serialization cost model and size estimation."""

import enum
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.mercury import BulkRef, SerializationModel, SizedBatch, estimate_size


def _reference_size(payload):
    """The ``isinstance``-chain sizer the exact-type dispatch replaced,
    kept as the oracle every size must match bit for bit."""
    if payload is None:
        return 4
    encoded = getattr(type(payload), "__encoded_size__", None)
    if encoded is not None:
        return int(encoded)
    if isinstance(payload, bool):
        return 4
    if isinstance(payload, int):
        return 8
    if isinstance(payload, float):
        return 8
    if isinstance(payload, bytes):
        return 8 + len(payload)
    if isinstance(payload, str):
        return 8 + len(payload.encode("utf-8"))
    if isinstance(payload, (list, tuple)):
        return 8 + sum(_reference_size(v) for v in payload)
    if isinstance(payload, dict):
        return 8 + sum(
            _reference_size(k) + _reference_size(v) for k, v in payload.items()
        )
    raise TypeError(f"cannot estimate encoded size of {type(payload).__name__}")


def test_ser_time_affine():
    m = SerializationModel(ser_fixed=1e-6, ser_per_byte=1e-9)
    assert m.ser_time(0) == pytest.approx(1e-6)
    assert m.ser_time(1000) == pytest.approx(1e-6 + 1e-6)


def test_deser_time_affine():
    m = SerializationModel(deser_fixed=2e-6, deser_per_byte=2e-9)
    assert m.deser_time(500) == pytest.approx(2e-6 + 1e-6)


def test_negative_costs_rejected():
    with pytest.raises(ValueError):
        SerializationModel(ser_fixed=-1.0)
    with pytest.raises(ValueError):
        SerializationModel(deser_per_byte=-1e-9)


def test_estimate_size_primitives():
    assert estimate_size(None) == 4
    assert estimate_size(True) == 4
    assert estimate_size(7) == 8
    assert estimate_size(3.14) == 8
    assert estimate_size(b"abc") == 8 + 3
    assert estimate_size("abc") == 8 + 3


def test_estimate_size_unicode_uses_utf8():
    assert estimate_size("é") == 8 + 2


def test_estimate_size_containers():
    assert estimate_size([1, 2]) == 8 + 16
    assert estimate_size((1, 2)) == 8 + 16
    assert estimate_size({"k": 1}) == 8 + (8 + 1) + 8


def test_estimate_size_nested():
    payload = {"rows": [{"id": 1, "val": "x"}] * 3}
    assert estimate_size(payload) > 3 * estimate_size({"id": 1, "val": "x"})


def test_estimate_size_unsupported_type():
    with pytest.raises(TypeError):
        estimate_size(object())


@given(st.binary(max_size=4096))
def test_bytes_size_monotone_in_length(data):
    assert estimate_size(data) == 8 + len(data)


@given(
    st.recursive(
        st.one_of(
            st.none(),
            st.booleans(),
            st.integers(-(2**62), 2**62),
            st.floats(allow_nan=False, allow_infinity=False),
            st.text(max_size=20),
            st.binary(max_size=20),
        ),
        lambda children: st.one_of(
            st.lists(children, max_size=5),
            st.dictionaries(st.text(max_size=5), children, max_size=5),
        ),
        max_leaves=20,
    )
)
def test_estimate_size_always_positive_and_deterministic(payload):
    s1 = estimate_size(payload)
    s2 = estimate_size(payload)
    assert s1 == s2
    assert s1 >= 4


@given(st.lists(st.integers(0, 100), max_size=30))
def test_list_size_is_sum_of_parts_plus_overhead(items):
    assert estimate_size(items) == 8 + sum(estimate_size(i) for i in items)


def test_bulk_ref_counts_as_descriptor_only():
    """A BulkRef rides as a 24-byte descriptor regardless of payload --
    the split between RPC metadata and bulk data."""
    from repro.mercury import BulkRef

    big = BulkRef(b"x" * 1_000_000)
    assert big.nbytes == 8 + 1_000_000
    assert estimate_size(big) == 24
    assert estimate_size({"bulk": big}) == 8 + (8 + 4) + 24


def test_bulk_ref_explicit_size_overrides_estimate():
    from repro.mercury import BulkRef

    ref = BulkRef(b"abc", 999)
    assert ref.nbytes == 999
    assert BulkRef(b"abc", 0).nbytes == 0


_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**80), 2**80),
    st.floats(),  # NaN and infinities included
    st.text(max_size=12),  # any code point, so ASCII and non-ASCII
    st.binary(max_size=12),
)
_keys = st.one_of(
    st.text(max_size=6),
    st.integers(-(2**80), 2**80),
    st.none(),
    st.tuples(st.integers(), st.text(max_size=4)),
)
_payloads = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(_keys, children, max_size=5),
    ),
    max_leaves=30,
)


@given(_payloads)
def test_estimate_size_matches_reference(payload):
    assert estimate_size(payload) == _reference_size(payload)


class _Color(enum.IntEnum):
    RED = 1


class _Text(str):
    pass


class _Mapping(dict):
    pass


class _Items(list):
    pass


class _Descriptor(list):
    __encoded_size__ = 40


_RESOLVED = {
    "int_enum": _Color.RED,
    "numpy_float64": np.float64(2.5),
    "str_subclass": _Text("plain"),
    "str_subclass_non_ascii": _Text("non-ascii é"),
    "dict_subclass": _Mapping(a=1, b=_Text("x")),
    "list_subclass": _Items([1, "two", _Color.RED]),
    "list_subclass_with_hook": _Descriptor([1, 2, 3]),
    "hook_list_nested": {"d": _Descriptor(), "l": [_Descriptor([1])]},
    "bulk_ref_in_dict_and_list": {
        "bulk": BulkRef(b"x" * 100),
        "refs": [BulkRef(b"y"), BulkRef([1, 2])],
    },
    "bulk_ref_in_list_and_tuple": [BulkRef({"k": "v"}), {"inner": (BulkRef(b""), None)}],
    "subclass_key_and_value": {_Text("key"): _Mapping({1: np.float64(0.0)})},
    "non_ascii_and_tuple_keys": {"é": "ü", ("t", 1): [None, True, 2**70]},
}


@pytest.mark.parametrize("payload", _RESOLVED.values(), ids=_RESOLVED.keys())
def test_estimate_size_resolves_hooks_and_subclasses(payload):
    assert estimate_size(payload) == _reference_size(payload)


_UNSUPPORTED = {
    "numpy_int64": np.int64(3),
    "set": {1, 2},
    "object": object(),
    "numpy_int64_in_list": [1, np.int64(3)],
    "set_in_dict": {"k": {1, 2}},
    "object_in_tuple_in_list": {"k": [None, (object(),)]},
    "numpy_int64_key": {np.int64(1): 0},
    "set_value_before_numpy_int64_key": {"k": {1, 2}, np.int64(1): 0},
}


@pytest.mark.parametrize("payload", _UNSUPPORTED.values(), ids=_UNSUPPORTED.keys())
def test_estimate_size_rejects_unsupported_types_like_reference(payload):
    with pytest.raises(TypeError) as expected:
        _reference_size(payload)
    with pytest.raises(TypeError, match=f"^{re.escape(str(expected.value))}$"):
        estimate_size(payload)


# ------------------------------------------------------------ SizedBatch
#
# A batch is sized once, when built, and must then cost exactly what the
# plain list of its items costs.


@given(st.lists(_payloads, max_size=8))
def test_sized_batch_is_sized_like_the_plain_list(items):
    batch = SizedBatch(items)
    assert estimate_size(batch) == estimate_size(list(items))
    assert estimate_size(batch) == _reference_size(items)
    assert estimate_size({"records": batch}) == estimate_size({"records": items})


@given(st.lists(_payloads, max_size=8))
def test_sized_batch_sizes_each_item(items):
    batch = SizedBatch(items)
    assert batch.sizes.typecode == "q"
    assert len(batch.items) == len(batch.sizes) == len(items)
    for item, kept, size in zip(items, batch.items, batch.sizes):
        assert kept is item
        assert size == estimate_size(item)


_bounds = st.none() | st.integers(-12, 12)


@given(st.lists(_payloads, max_size=10), _bounds, _bounds)
def test_a_batch_slice_is_the_batch_of_the_sliced_items(items, i, j):
    # A slice takes its sizes from the parent: it must be exactly the
    # batch that sizing the same items afresh builds.
    sliced = SizedBatch(items)[i:j]
    fresh = SizedBatch(items[i:j])
    assert len(sliced) == len(fresh) == len(items[i:j])
    assert all(a is b for a, b in zip(sliced.items, fresh.items, strict=True))
    assert sliced.sizes == fresh.sizes
    assert sliced.nbytes == fresh.nbytes == estimate_size(items[i:j])


def test_a_batch_is_indexed_by_slices_only():
    with pytest.raises(TypeError, match="slices only"):
        SizedBatch([1, 2])[0]


@given(
    st.lists(_payloads, max_size=4),
    st.sampled_from(list(_UNSUPPORTED.values())),
    st.lists(_payloads, max_size=4),
)
def test_sized_batch_rejects_unsupported_items_like_the_list(before, bad, after):
    items = [*before, bad, *after]
    with pytest.raises(TypeError) as expected:
        estimate_size(items)
    with pytest.raises(TypeError, match=f"^{re.escape(str(expected.value))}$"):
        SizedBatch(items)


@given(
    st.lists(
        st.dictionaries(st.text(max_size=5), _payloads, max_size=4),
        min_size=1,
        max_size=6,
    )
)
def test_sized_batch_keeps_its_build_time_sizes(docs):
    batch = SizedBatch(docs)
    size, sizes = estimate_size(batch), list(batch.sizes)
    for doc in docs:
        doc["added after the build"] = "x" * 100
    assert estimate_size(batch) == size
    assert list(batch.sizes) == sizes
    # The items are the very documents, so sizing them again sees the
    # change; the batch keeps what was encoded.
    assert estimate_size(list(batch.items)) == size + len(docs) * (8 + 21 + 8 + 100)
