"""JSON record-array generator for the Sonata benchmark (Figure 7).

Produces fixed-schema records resembling telemetry/event documents; the
Figure 7 benchmark stores a 50,000-entry record array in batches of
5,000 via ``sonata_store_multi_json``.

The array is born a :class:`~repro.mercury.SizedBatch`, as a real
client's records arrive already encoded: a run slices it into batches
and sizes no record.  Every value but the tag has a fixed type (``int``
id, ``float`` score and fields), and ``estimate_size`` of an int or a
float does not depend on its value, so records with the same tag have
the same encoded size.  The generator sizes one record of each tag
with ``estimate_size`` and gives every other record of that tag its
size.
"""

from __future__ import annotations

from array import array
from operator import itemgetter

from ..mercury import SizedBatch, estimate_size
from ..sim import RngRegistry

__all__ = ["generate_json_records"]

_TAGS = ("alpha", "beta", "gamma", "delta", "epsilon")
_tag = itemgetter("tag")


def generate_json_records(
    n_records: int, *, fields_per_record: int = 6, seed: int = 42
) -> SizedBatch:
    """Deterministic record array with ``fields_per_record`` payload
    fields per record (plus id/tag), as a sized batch."""
    if n_records < 0:
        raise ValueError("n_records must be non-negative")
    if fields_per_record < 0:
        raise ValueError("fields_per_record must be non-negative")
    rng = RngRegistry(seed).stream("json_records")
    names = [f"field{f}" for f in range(fields_per_record)]

    def records():
        for i in range(n_records):
            rec = {
                "id": i,
                "tag": _TAGS[int(rng.integers(0, len(_TAGS)))],
                "score": float(rng.random()),
            }
            # One sized draw per record: it runs the same per-draw
            # ziggurat loop as ``fields_per_record`` scalar ``normal()``
            # calls, so the values and the generator state match them.
            rec.update(zip(names, rng.normal(size=fields_per_record).tolist()))
            yield rec

    # Built straight into the batch's tuple: no list of the records is
    # ever alive beside it.
    items = tuple(records())
    # One record per tag (the last one) is sized; the others share its size.
    one_per_tag = dict(zip(map(_tag, items), items))
    size_of_tag = {tag: estimate_size(rec) for tag, rec in one_per_tag.items()}
    sizes = array("q", map(size_of_tag.__getitem__, map(_tag, items)))
    return SizedBatch._presized(items, sizes)
