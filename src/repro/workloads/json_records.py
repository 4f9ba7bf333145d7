"""JSON record-array generator for the Sonata benchmark (Figure 7).

Produces fixed-schema records resembling telemetry/event documents; the
Figure 7 benchmark stores a 50,000-entry record array in batches of
5,000 via ``sonata_store_multi_json``.

Each record is ``{"id": i, "tag": ..., "score": ..., "field0": ...}``,
and its values are those of three numpy calls per record on a fresh
PCG64 stream: ``integers(0, 5)`` picks the tag, ``random()`` the score
and ``normal(size=fields_per_record)`` the fields.  The generator makes
two calls per record, with the same values and the same final
generator state.  It copies the first two draws from raw 64-bit words,
one ``random_raw`` call per record (numpy 2.4.6's algorithms):

* ``integers(0, 5)`` on PCG64 takes a 32-bit input ``x`` from
  ``next_uint32``: the low half of a fresh word, whose high half it
  buffers for the next call.  The tag is ``_TAGS[(x * 5) >> 32]``
  (Lemire's rule, ``buffered_bounded_lemire_uint32``), which rejects
  ``x`` and takes the next half-word only when ``(x * 5) mod 2**32`` is
  below ``(2**32 - 5) % 5 == 1``, that is only when ``x == 0``.
* ``random()`` is ``(w >> 11) * 2**-53`` of the next word ``w``; like
  ``normal``, it neither reads nor fills the half-word buffer.

So a record whose buffer is empty draws two words (tag and score), and
the next record takes its tag from the buffered half and draws one (the
score).  After the last record the bit generator's half-word buffer is
set as ``integers`` leaves it: ``uinteger`` holds the last high half
drawn, read or not, and ``has_uint32`` says whether it is unread.

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

#: Five tags: the draw below copies ``integers(0, 5)``, whose rejection
#: rule (``x == 0`` only) holds for a range of 5.
_TAGS = ("alpha", "beta", "gamma", "delta", "epsilon")
_tag = itemgetter("tag")
_LOW32 = 0xFFFFFFFF
#: ``random()``'s scale: the top 53 bits of a word, times 2**-53.
_DOUBLE_UNIT = 2.0**-53


def _redraw(half, buffered, score_word, random_raw):
    """Lemire's rejection of a tag input ``x == 0``: draw ``x`` again
    from the next half-word, the buffered ``half`` if there is one, else
    the low half of the next raw word.  That word was drawn as the
    score, so the score moves on to the word after it.  Returns
    ``(x, half, buffered, score_word)``."""
    x = 0
    while not x:
        if buffered:
            x, buffered = half, False
        else:
            x, half, buffered = score_word & _LOW32, score_word >> 32, True
            score_word = random_raw()
    return x, half, buffered, score_word


def _records(n_records, fields_per_record, bitgen, normal):
    """The records, each tag and score copied from raw words of
    ``bitgen`` (a fresh PCG64, or anything with its ``random_raw`` and
    ``state``) and the fields drawn by ``normal``.  At the end the
    half-word buffer goes back into ``bitgen.state`` as ``integers``
    leaves it: the last high half drawn, and whether it is unread."""
    random_raw = bitgen.random_raw
    keys = ("id", "tag", "score", *(f"field{f}" for f in range(fields_per_record)))
    half, buffered = 0, False
    for i in range(n_records):
        # The score word is drawn before the tag is known to be kept;
        # ``_redraw`` moves it on if the tag needs a fresh word.
        if buffered:
            x, buffered, score_word = half, False, random_raw()
        else:
            word, score_word = random_raw(2).tolist()
            x, half, buffered = word & _LOW32, word >> 32, True
        if not x:
            x, half, buffered, score_word = _redraw(
                half, buffered, score_word, random_raw
            )
        # One sized draw per record: it runs the same per-draw ziggurat
        # loop as ``fields_per_record`` scalar ``normal()`` calls, so the
        # values and the generator state match them.
        fields = normal(size=fields_per_record).tolist()
        yield dict(
            zip(keys, (i, _TAGS[(x * 5) >> 32], (score_word >> 11) * _DOUBLE_UNIT, *fields))
        )
    if n_records:
        state = bitgen.state
        state["has_uint32"], state["uinteger"] = int(buffered), half
        bitgen.state = state


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
    start = rng.bit_generator.state
    if start["bit_generator"] != "PCG64" or start["has_uint32"]:
        raise ValueError(
            "generate_json_records copies numpy's draws on a fresh PCG64 "
            f"stream; got {start['bit_generator']} with "
            f"has_uint32={start.get('has_uint32')}"
        )
    # Built straight into the batch's tuple: no list of the records is
    # ever alive beside it.
    items = tuple(
        _records(n_records, fields_per_record, rng.bit_generator, rng.normal)
    )
    # One record per tag (the last one) is sized; the others share its size.
    one_per_tag = dict(zip(map(_tag, items), items))
    size_of_tag = {tag: estimate_size(rec) for tag, rec in one_per_tag.items()}
    sizes = array("q", map(size_of_tag.__getitem__, map(_tag, items)))
    return SizedBatch._presized(items, sizes)
