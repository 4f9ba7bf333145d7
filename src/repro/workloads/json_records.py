"""JSON record-array generator for the Sonata benchmark (Figure 7).

Produces fixed-schema records resembling telemetry/event documents; the
Figure 7 benchmark stores a 50,000-entry record array in batches of
5,000 via ``sonata_store_multi_json``.
"""

from __future__ import annotations

from ..sim import RngRegistry

__all__ = ["generate_json_records"]

_TAGS = ("alpha", "beta", "gamma", "delta", "epsilon")


def generate_json_records(
    n_records: int, *, fields_per_record: int = 6, seed: int = 42
) -> list[dict]:
    """Deterministic record array with ``fields_per_record`` payload
    fields per record (plus id/tag)."""
    if n_records < 0:
        raise ValueError("n_records must be non-negative")
    if fields_per_record < 0:
        raise ValueError("fields_per_record must be non-negative")
    rng = RngRegistry(seed).stream("json_records")
    names = [f"field{f}" for f in range(fields_per_record)]
    records = []
    for i in range(n_records):
        rec = {
            "id": i,
            "tag": _TAGS[int(rng.integers(0, len(_TAGS)))],
            "score": float(rng.random()),
        }
        # One sized draw per record: it runs the same per-draw ziggurat
        # loop as ``fields_per_record`` scalar ``normal()`` calls, so the
        # values and the generator state match them.
        rec.update(zip(names, rng.normal(size=fields_per_record).tolist()))
        records.append(rec)
    return records
