"""Serialization cost model and payload size estimation.

Real Mercury spends CPU encoding RPC metadata with a proc-based XDR-like
encoder; the time is roughly affine in the encoded size.  The simulated
(de)serializers charge the calling ULT ``fixed + per_byte * nbytes``
seconds of compute, which is what the ``input_serialization_time`` /
``input_deserialization_time`` / ``output_serialization_time`` handle
PVARs report.

``estimate_size`` gives a deterministic encoded-size estimate for the
plain-Python payloads the services exchange, so callers don't have to
hand-count bytes.  It dispatches on the payload's exact type:

* ``None``, ``bool``, ``int`` and ``float`` have fixed sizes, read from
  one dict keyed by exact type;
* ``str`` costs ``8 + len`` of its UTF-8 encoding, which is ``len(s)``
  for ASCII text, so only non-ASCII text is encoded; ``bytes`` costs
  ``8 + len``;
* ``list``, ``tuple`` and ``dict`` add 8 to the size of their items, and
  size scalar, ASCII ``str`` and ``bytes`` items inline rather than
  recursing.

Every other type is resolved onto the same handlers: a type with an
``__encoded_size__`` class attribute (``BulkRef``) costs that many
bytes, and a subclass of a supported type (``IntEnum``,
``numpy.float64``, a ``dict`` subclass, ...) is sized as its first
matching base in the order int, float, bytes, str, list/tuple, dict.
Anything else raises ``TypeError``.

Sizes are recomputed on every call, with one exception: a
``SizedBatch`` carries the size of each of its items.  A batch built
from a plain sequence sizes every item once, when built, as Mercury's
encoder fixes the encoded bytes when it packs the input; a generated
record array (``generate_json_records``) is built sized, from sizes the
generator already knows.  Slicing a batch sizes nothing: the slice
takes its items' sizes from the parent.  So ``estimate_size`` reads a
batch's size in O(1) and a target charges per-item costs without
sizing the items again.  Any other payload is sized afresh: Sonata
documents are mutable dicts, so a size cached by object would go stale.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Iterable

from ..config import Replaceable

__all__ = ["SerializationModel", "SizedBatch", "estimate_size"]


@dataclass(frozen=True, kw_only=True)
class SerializationModel(Replaceable):
    """Affine cost model for encode/decode of RPC metadata."""

    ser_fixed: float = 0.3e-6
    ser_per_byte: float = 0.25e-9
    deser_fixed: float = 0.35e-6
    deser_per_byte: float = 0.3e-9

    def __post_init__(self) -> None:
        for field_name in ("ser_fixed", "ser_per_byte", "deser_fixed", "deser_per_byte"):
            if getattr(self, field_name) < 0:
                raise ValueError(f"{field_name} must be non-negative")

    def ser_time(self, nbytes: int) -> float:
        """CPU time to serialize ``nbytes`` of metadata."""
        return self.ser_fixed + self.ser_per_byte * nbytes

    def deser_time(self, nbytes: int) -> float:
        """CPU time to deserialize ``nbytes`` of metadata."""
        return self.deser_fixed + self.deser_per_byte * nbytes


_OVERHEAD_PER_ITEM = 8  # length/tag prefix, like an XDR 4+4
_NULL_SIZE = 4

#: Encoded size of each fixed-size scalar, keyed by exact type.
_SCALAR_SIZES: dict[type, int] = {
    type(None): _NULL_SIZE,
    bool: _NULL_SIZE,
    int: 8,
    float: 8,
}
_scalar_size = _SCALAR_SIZES.get


def _size_str(s: str) -> int:
    # ``isascii`` is O(1) in CPython; only non-ASCII text is encoded.
    return _OVERHEAD_PER_ITEM + (len(s) if s.isascii() else len(s.encode("utf-8")))


def _size_bytes(b: bytes) -> int:
    return _OVERHEAD_PER_ITEM + len(b)


# The container handlers size scalar, ASCII ``str`` and ``bytes`` items
# inline: for record batches and packed events, one call per item would
# be most of the sizing cost.  ``bytes`` is tested after ``str``, so the
# text-heavy record batches pay no extra compare.
def _size_sequence(items: Any) -> int:
    total = _OVERHEAD_PER_ITEM
    for v in items:
        size = _scalar_size(type(v))
        if size is None:
            if (type(v) is str and v.isascii()) or type(v) is bytes:
                size = _OVERHEAD_PER_ITEM + len(v)
            else:
                size = estimate_size(v)
        total += size
    return total


# One pass over ``items()`` rather than ``_size_sequence`` over keys and
# then values: it is faster on record batches, and it meets an
# unsupported key or value in the same order as the old chain, so the
# ``TypeError`` names the same type.
def _size_dict(d: Any) -> int:
    total = _OVERHEAD_PER_ITEM
    for k, v in d.items():
        if type(k) is str and k.isascii():
            total += _OVERHEAD_PER_ITEM + len(k)
        else:
            total += estimate_size(k)
        size = _scalar_size(type(v))
        if size is None:
            if (type(v) is str and v.isascii()) or type(v) is bytes:
                size = _OVERHEAD_PER_ITEM + len(v)
            else:
                size = estimate_size(v)
        total += size
    return total


class SizedBatch:
    """A sequence of items sized once, when the batch is built.

    ``sizes[i]`` is ``estimate_size(items[i])`` at build time, and the
    batch's own encoded size is that of the plain list of its items:
    ``8 + sum(sizes)``.  The sizes are held as machine integers
    (``array("q")``, 8 bytes each rather than an int object apiece).  An
    unsupported item raises ``TypeError`` here, as sizing the list would.
    """

    __slots__ = ("items", "sizes", "nbytes")

    def __init__(self, items: Iterable[Any]):
        self.items = tuple(items)
        self.sizes = array("q", map(estimate_size, self.items))
        self.nbytes = _OVERHEAD_PER_ITEM + sum(self.sizes)

    @classmethod
    def _presized(cls, items: tuple, sizes: array) -> "SizedBatch":
        """A batch of ``items`` whose sizes the caller already knows:
        ``sizes[i]`` must equal ``estimate_size(items[i])``."""
        batch = cls.__new__(cls)
        batch.items = items
        batch.sizes = sizes
        batch.nbytes = _OVERHEAD_PER_ITEM + sum(sizes)
        return batch

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, span: slice) -> "SizedBatch":
        """The items in ``span``, with their sizes taken from this batch."""
        if not isinstance(span, slice):
            raise TypeError("a SizedBatch is indexed by slices only")
        return SizedBatch._presized(self.items[span], self.sizes[span])


#: Handler per exact container/text type.
_HANDLERS = {
    str: _size_str,
    bytes: _size_bytes,
    list: _size_sequence,
    tuple: _size_sequence,
    dict: _size_dict,
    SizedBatch: attrgetter("nbytes"),
}

#: The supported bases, in the order a subclass is matched against them
#: (``bool`` cannot be subclassed, so it only ever takes the fast path).
_BASES = (int, float, bytes, str, list, tuple, dict)


def _size_resolved(payload: Any) -> int:
    """Size of a payload whose exact type has no fast path: a type with
    the ``__encoded_size__`` hook, or a subclass of a supported type."""
    encoded = getattr(type(payload), "__encoded_size__", None)
    if encoded is not None:
        return int(encoded)
    for base in _BASES:
        if isinstance(payload, base):
            size = _scalar_size(base)
            return size if size is not None else _HANDLERS[base](payload)
    raise TypeError(f"cannot estimate encoded size of {type(payload).__name__}")


def estimate_size(payload: Any) -> int:
    """Deterministic encoded-size estimate (bytes) for an RPC payload.

    Supports the payload shapes used across the services: None, bool,
    int, float, str, bytes, and (possibly nested) list/tuple/dict.
    """
    tp = type(payload)
    size = _scalar_size(tp)
    if size is not None:
        return size
    handler = _HANDLERS.get(tp)
    return handler(payload) if handler is not None else _size_resolved(payload)
