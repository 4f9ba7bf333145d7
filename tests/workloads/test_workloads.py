"""Tests for the workload generators (ior, synthetic files, JSON records)."""

import hashlib
from collections import Counter
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, strategies as st

import repro.workloads.json_records as json_records
from repro.mercury import estimate_size
from repro.sim import RngRegistry
from repro.workloads import (
    IorClient,
    IorConfig,
    flatten_to_pairs,
    generate_event_files,
    generate_json_records,
    run_ior_clients,
)


# ------------------------------------------------------------ ior


def test_ior_config_validation():
    with pytest.raises(ValueError):
        IorConfig(objects_per_client=0)
    with pytest.raises(ValueError):
        IorConfig(transfer_size=0)
    with pytest.raises(ValueError):
        IorConfig(read_iterations=-1)


def test_ior_object_ids_unique_per_rank():
    from repro.margo import MargoInstance
    from repro.net import Fabric, FabricConfig
    from repro.sim import Simulator

    sim = Simulator()
    fabric = Fabric(sim, FabricConfig())
    clients = [
        IorClient(
            MargoInstance(sim, fabric, f"c{r}", "n0"),
            "target",
            r,
            IorConfig(objects_per_client=3),
        )
        for r in range(2)
    ]
    ids = {
        c._object_id(i) for c in clients for i in range(3)
    }
    assert len(ids) == 6


def test_ior_end_to_end_verifies_data():
    from repro.cluster import Cluster
    from repro.services.mobject import MobjectProviderNode

    cluster = Cluster(stage=None)
    MobjectProviderNode(cluster.process("mobj", "n0", n_handler_es=4))
    clients = [
        IorClient(
            cluster.process(f"ior{r}", "n0"),
            "mobj",
            r,
            IorConfig(objects_per_client=2, transfer_size=2048,
                      read_iterations=2),
        )
        for r in range(3)
    ]
    run_ior_clients(clients)
    assert cluster.run_until(
        lambda: all(c.finished_at is not None for c in clients), limit=10.0
    )
    for c in clients:
        assert c.write_errors == 0
        assert c.read_mismatches == 0


def test_ior_rank_data_is_deterministic_per_seed():
    from repro.margo import MargoInstance
    from repro.net import Fabric, FabricConfig
    from repro.sim import Simulator

    def data_for(seed):
        sim = Simulator()
        fabric = Fabric(sim, FabricConfig())
        c = IorClient(
            MargoInstance(sim, fabric, "c", "n0"), "t", 0,
            IorConfig(transfer_size=64), seed=seed,
        )
        return c._rng.integers(0, 256, size=16, dtype="uint8").tobytes()

    assert data_for(1) == data_for(1)
    assert data_for(1) != data_for(2)


# ------------------------------------------------------------ synthetic files


def test_event_files_keys_are_well_formed():
    files = generate_event_files(n_files=2, events_per_file=20,
                                 subruns_per_file=4)
    for f in files:
        for key, payload in f.to_pairs():
            dataset, run, subrun, event = key.split("%")
            assert dataset == f.dataset
            assert int(run) == f.run
            assert 0 <= int(subrun) < 4


def test_event_file_keys_equal_event_key_and_its_errors():
    """A file formats its dataset/run prefix once; its keys, and the
    ValueError text of bad input, are those of ``event_key`` per event."""
    from repro.services.hepnos import event_key
    from repro.workloads import SyntheticEventFile

    (f,) = generate_event_files(n_files=1, events_per_file=12,
                                subruns_per_file=3)
    assert [k for k, _ in f.to_pairs()] == [
        event_key(f.dataset, f.run, subrun, event) for subrun, event, _ in f.events
    ]
    ok = [(0, 0, b"a"), (1, 1, b"b")]
    for dataset, run, events in (
        ("bad%name", 0, ok),
        ("d", -1, ok),
        ("d", 10**9, ok),
        ("d", 10**9, [(-1, 0, b"")]),  # the run is named first
        ("d", 0, ok + [(-1, 0, b"")]),
        ("d", 0, ok + [(0, 10**9, b"")]),
        ("d", 0, [(10**9, -1, b"")]),  # the subrun is named first
    ):
        bad = next(
            (s, e) for s, e, _ in events
            if not (0 <= run < 10**9 and 0 <= s < 10**9 and 0 <= e < 10**9)
            or "%" in dataset
        )
        with pytest.raises(ValueError) as expected:
            event_key(dataset, run, *bad)
        with pytest.raises(ValueError) as got:
            SyntheticEventFile(dataset=dataset, run=run, events=events).to_pairs()
        assert str(got.value) == str(expected.value)
    # A file with no events has no key to check.
    assert SyntheticEventFile(dataset="d", run=-1, events=[]).to_pairs() == []


def test_subruns_partition_events_in_order():
    (f,) = generate_event_files(n_files=1, events_per_file=16,
                                subruns_per_file=4)
    subruns = [subrun for subrun, _, _ in f.events]
    assert subruns == sorted(subruns)
    assert set(subruns) == {0, 1, 2, 3}


def test_flatten_preserves_order_and_count():
    files = generate_event_files(n_files=3, events_per_file=8)
    pairs = flatten_to_pairs(files)
    assert len(pairs) == 24
    keys = [k for k, _ in pairs]
    assert keys == sorted(keys)  # file order == run order == key order


def _per_event_reference(n_files, events_per_file, mean_event_bytes, sigma, seed):
    """Payloads drawn the straightforward way -- one uint8 draw per event
    -- and the generator state they leave behind."""
    rng = RngRegistry(seed).stream("synthetic_hdf5")
    payloads = []
    for _ in range(n_files):
        mu = np.log(mean_event_bytes) - sigma**2 / 2
        sizes = np.exp(rng.normal(mu, sigma, size=events_per_file))
        for n in np.maximum(16, sizes.astype(int)):
            payloads.append(rng.integers(0, 256, size=int(n), dtype=np.uint8).tobytes())
    return payloads, rng.bit_generator.state


def test_event_payloads_equal_per_event_uint8_draw(monkeypatch):
    import repro.workloads.synthetic_hdf5 as synthetic_hdf5

    streams = []

    class RecordingRegistry(RngRegistry):
        def stream(self, name):
            gen = super().stream(name)
            streams.append(gen)
            return gen

    monkeypatch.setattr(synthetic_hdf5, "RngRegistry", RecordingRegistry)
    kw = dict(events_per_file=64, mean_event_bytes=37, sigma=0.5, seed=99)
    files = generate_event_files(n_files=3, **kw)
    payloads = [p for f in files for _, _, p in f.events]
    assert {1, 2, 3} <= {len(p) % 4 for p in payloads}  # partial last words
    words = [sum((len(p) + 3) // 4 for _, _, p in f.events) for f in files]
    assert any(w % 2 for w in words)  # PCG64 left holding half a 64-bit output

    expected, expected_state = _per_event_reference(3, **kw)
    assert payloads == expected
    (rng,) = streams
    assert rng.bit_generator.state == expected_state


def test_default_event_payloads_are_pinned():
    # Seed-0 benchmark outputs see payload sizes only, so this digest is
    # what catches a change in the payload bytes themselves.
    digest = hashlib.sha256()
    for f in generate_event_files():
        for _, _, payload in f.events:
            digest.update(payload)
    assert digest.hexdigest() == (
        "54b5e0487ddb49762f74c4fa597b7a512c3cda7748b54f31fa0e0cf416d634f6"
    )


def test_event_keys_equal_event_key_encoding():
    from repro.services.hepnos import event_key

    files = generate_event_files(n_files=2, events_per_file=40, subruns_per_file=3)
    for f in files:
        pairs = f.to_pairs()
        assert len(pairs) == len(f.events)
        for (key, payload), (subrun, event, data) in zip(pairs, f.events):
            assert payload is data
            assert key == event_key(f.dataset, f.run, subrun, event)
            assert key == "%".join(
                (f.dataset, f"{f.run:09d}", f"{subrun:09d}", f"{event:09d}")
            )


def test_event_sizes_lognormal_spread():
    (f,) = generate_event_files(n_files=1, events_per_file=200,
                                mean_event_bytes=1024)
    sizes = [len(p) for _, _, p in f.events]
    mean = sum(sizes) / len(sizes)
    assert 700 < mean < 1500
    assert min(sizes) >= 16
    assert max(sizes) > 1.5 * min(sizes)  # genuinely variable


# ------------------------------------------------------------ JSON records


def test_json_records_shape_and_determinism():
    a = generate_json_records(50, fields_per_record=3, seed=5)
    b = generate_json_records(50, fields_per_record=3, seed=5)
    assert a.items == b.items and a.sizes == b.sizes
    assert len(a) == 50
    for i, rec in enumerate(a.items):
        assert rec["id"] == i
        assert {"tag", "score", "field0", "field1", "field2"} <= set(rec)


def test_json_records_validation():
    with pytest.raises(ValueError):
        generate_json_records(-1)
    with pytest.raises(ValueError):
        generate_json_records(5, fields_per_record=-1)
    empty = generate_json_records(0)
    assert empty.items == () and list(empty.sizes) == []
    assert estimate_size(empty) == estimate_size([])


def _per_field_reference(n_records, fields_per_record, seed):
    """Records drawn the straightforward way -- one scalar ``normal()``
    per field -- and the generator state they leave behind."""
    rng = RngRegistry(seed).stream("json_records")
    tags = ("alpha", "beta", "gamma", "delta", "epsilon")
    records = []
    for i in range(n_records):
        rec = {
            "id": i,
            "tag": tags[int(rng.integers(0, len(tags)))],
            "score": float(rng.random()),
        }
        for f in range(fields_per_record):
            rec[f"field{f}"] = float(rng.normal())
        records.append(rec)
    return records, rng.bit_generator.state


@pytest.mark.parametrize("fields_per_record", [0, 1, 2, 3, 6, 9])
def test_json_records_equal_per_field_scalar_draws(monkeypatch, fields_per_record):
    import repro.workloads.json_records as json_records

    streams = []

    class RecordingRegistry(RngRegistry):
        def stream(self, name):
            gen = super().stream(name)
            streams.append(gen)
            return gen

    monkeypatch.setattr(json_records, "RngRegistry", RecordingRegistry)
    for seed in (0, 7, 42):
        streams.clear()
        got = list(
            generate_json_records(
                301, fields_per_record=fields_per_record, seed=seed
            ).items
        )
        expected, expected_state = _per_field_reference(
            301, fields_per_record, seed
        )
        assert got == expected
        assert [list(r) for r in got] == [list(r) for r in expected]  # key order
        assert repr(got) == repr(expected)  # float bits, -0.0 included
        (rng,) = streams
        assert rng.bit_generator.state == expected_state


def test_default_json_records_are_pinned():
    # The Fig 7 instance: 50,000 records.  The perfbench outputs see the
    # serialized sizes only, so this digest is what catches a change in
    # the values themselves.
    batch = generate_json_records(50_000)
    digest = hashlib.sha256(repr(list(batch.items)).encode())
    assert digest.hexdigest() == (
        "c7cc72d3d54f20ff9d8cad6718168bf0ab2397626188adff93af6981daa579c9"
    )


def _generate_recorded(n_records, fields_per_record, seed, stream=None):
    """``generate_json_records``'s records and the stream it drew them
    from; ``stream(gen)``, if given, replaces the registry's stream."""
    import repro.workloads.json_records as json_records

    streams = []

    class RecordingRegistry(RngRegistry):
        def stream(self, name):
            gen = super().stream(name)
            if stream is not None:
                gen = stream(gen)
            streams.append(gen)
            return gen

    with patch.object(json_records, "RngRegistry", RecordingRegistry):
        records = list(
            generate_json_records(
                n_records, fields_per_record=fields_per_record, seed=seed
            ).items
        )
    (rng,) = streams
    return records, rng


@given(st.integers(0, 400), st.integers(0, 9), st.integers(0, 2**32 - 1))
def test_json_records_equal_the_three_call_draws_for_any_seed(
    n_records, fields_per_record, seed
):
    # Odd and even counts end with and without a buffered half-word.
    got, rng = _generate_recorded(n_records, fields_per_record, seed)
    expected, expected_state = _per_field_reference(
        n_records, fields_per_record, seed
    )
    assert got == expected
    assert [list(r) for r in got] == [list(r) for r in expected]  # key order
    assert repr(got) == repr(expected)  # float bits
    assert rng.bit_generator.state == expected_state


def _word(high, low):
    return high << 32 | low


class _StubBitGen:
    """Raw words from a list, behind a PCG64-shaped state."""

    def __init__(self, words):
        self.words = list(words)
        self.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0}

    def random_raw(self, size=None):
        if size is None:
            return self.words.pop(0)
        out, self.words = self.words[:size], self.words[size:]
        return np.array(out, dtype=np.uint64)


def _lemire_tags_and_scores(words, n_records):
    """numpy's scalar ``integers(0, 5)`` then ``random()`` on PCG64,
    step by step: ``next_uint32`` keeps the high half of each word it
    draws in ``uinteger`` and sets ``has_uint32`` until it is read, and
    ``buffered_bounded_lemire_uint32`` redraws while the low 32 bits of
    ``x * 5`` are below ``(2**32 - 5) % 5``.  Returns the ``(tag,
    score)`` pairs and the final ``(has_uint32, uinteger)``."""
    words = iter(words)
    has_uint32, uinteger = 0, 0

    def next_uint32():
        nonlocal has_uint32, uinteger
        if has_uint32:
            has_uint32 = 0
            return uinteger
        w = next(words)
        has_uint32, uinteger = 1, w >> 32
        return w & 0xFFFFFFFF

    threshold = (2**32 - 5) % 5
    assert threshold == 1
    out = []
    for _ in range(n_records):
        m = next_uint32() * 5
        while m & 0xFFFFFFFF < threshold:
            m = next_uint32() * 5
        out.append((json_records._TAGS[m >> 32], (next(words) >> 11) * 2.0**-53))
    return out, (has_uint32, uinteger)


# Tag inputs with a readable tag: (x * 5) >> 32.
_ALPHA, _BETA, _GAMMA, _DELTA, _EPSILON = 1, 2**30, 2**31, 0xA0000000, 0xFFFFFFFF


@pytest.mark.parametrize(
    "words, n_records, tags, buffer",
    [
        # The low half is 0 on the first record (the tag comes from the
        # high half), and the high half is 0 on the last: its record
        # takes the low half of a fresh word and buffers the high half.
        (
            [_word(_GAMMA, 0), 2**63, _word(0, _BETA), 2**62,
             _word(_EPSILON, _DELTA), 2**61],
            3,
            ["gamma", "beta", "delta"],
            (1, _EPSILON),
        ),
        # Both halves 0 on the last (only) record: the word drawn as the
        # score is the tag's, and the score is the word after it.
        (
            [_word(0, 0), _word(_BETA, _ALPHA), 2**63],
            1,
            ["alpha"],
            (1, _BETA),
        ),
        # A rejected low half on the last record reads the buffer: it
        # keeps the half, marked read.
        (
            [_word(_DELTA, _ALPHA), 2**63, 2**62, _word(_EPSILON, 0), 2**61],
            3,
            ["alpha", "delta", "epsilon"],
            (0, _EPSILON),
        ),
    ],
)
def test_the_tag_redraw_follows_numpy_lemire_rule(words, n_records, tags, buffer):
    expected, expected_buffer = _lemire_tags_and_scores(words, n_records)
    assert [tag for tag, _ in expected] == tags and expected_buffer == buffer
    bitgen = _StubBitGen(words)
    records = list(
        json_records._records(
            n_records, 0, bitgen, lambda size: np.zeros(size)
        )
    )
    assert [(r["tag"], r["score"]) for r in records] == expected
    assert bitgen.words == []
    assert (bitgen.state["has_uint32"], bitgen.state["uinteger"]) == buffer


def _stream_starting_with(word):
    """A PCG64 stream whose first raw word is ``word``: its state is
    stepped back from one whose XSL-RR output is that word."""
    mult, mask = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 128) - 1
    high, inc = 0x9E3779B97F4A7C15, 0xDA3E39CB94B95BDB
    rot = high >> 58
    rotl = ((word << rot) | (word >> (64 - rot))) & (2**64 - 1)
    after = high << 64 | (rotl ^ high)
    before = (after - inc) * pow(mult, -1, 1 << 128) & mask
    gen = np.random.default_rng(0)
    gen.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": before, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


@pytest.mark.parametrize("n_records", [1, 2, 3])
@pytest.mark.parametrize(
    "first_word", [_word(_GAMMA, 0), _word(0, _BETA), _word(0, 0)]
)
def test_a_rejected_tag_draw_matches_numpy(first_word, n_records):
    # A seed reaches the redraw once in 2**32 draws, so the stream is
    # set up to: its first tag word has a zero low half, high half, or
    # both.  numpy's own ``integers`` is the oracle.
    assert _stream_starting_with(first_word).bit_generator.random_raw() == first_word
    got, rng = _generate_recorded(
        n_records, 2, 0, stream=lambda gen: _stream_starting_with(first_word)
    )
    reference = _stream_starting_with(first_word)
    expected = [
        {
            "id": i,
            "tag": json_records._TAGS[int(reference.integers(0, 5))],
            "score": float(reference.random()),
            **{f"field{f}": float(reference.normal()) for f in range(2)},
        }
        for i in range(n_records)
    ]
    assert repr(got) == repr(expected)
    assert rng.bit_generator.state == reference.bit_generator.state


def test_json_records_refuse_a_stream_that_is_not_a_fresh_pcg64():
    def used(gen):
        gen.integers(0, 5)  # leaves a half-word buffered
        return gen

    def mt19937(gen):
        return np.random.Generator(np.random.MT19937(0))

    for stream in (used, mt19937):
        with pytest.raises(ValueError, match="fresh PCG64"):
            _generate_recorded(4, 1, 0, stream=stream)


class _CountingBitGen:
    """A bit generator stand-in counting its method calls."""

    def __init__(self, bitgen, calls):
        self._bitgen, self._calls = bitgen, calls

    @property
    def state(self):
        return self._bitgen.state

    @state.setter
    def state(self, value):
        self._bitgen.state = value

    def __getattr__(self, name):
        return _counted(getattr(self._bitgen, name), name, self._calls)


class _CountingStream:
    """A Generator stand-in counting its and its bit generator's method
    calls."""

    def __init__(self, gen, calls):
        self._gen, self._calls = gen, calls
        self.bit_generator = _CountingBitGen(gen.bit_generator, calls)

    def __getattr__(self, name):
        return _counted(getattr(self._gen, name), name, self._calls)


def _counted(method, name, calls):
    def call(*args, **kwargs):
        calls[name] += 1
        return method(*args, **kwargs)

    return call


def test_json_records_make_two_numpy_calls_per_record():
    """One ``random_raw`` (tag and score) and one ``normal`` (fields)
    per record: the three-call form makes 3,000 calls for 1,000
    records (``integers``, ``random`` and ``normal``), this one 2,000."""
    calls = Counter()
    got, _ = _generate_recorded(
        1_000, 6, 42, stream=lambda gen: _CountingStream(gen, calls)
    )
    assert got == _per_field_reference(1_000, 6, 42)[0]
    assert calls == {"random_raw": 1_000, "normal": 1_000}


@given(
    st.integers(0, 400),
    st.integers(0, 9),
    st.sampled_from([0, 5, 42, 1234]),
)
def test_json_records_are_born_with_their_encoded_sizes(
    n_records, fields_per_record, seed
):
    # Sized per tag at generation, the batch must carry exactly the
    # sizes that sizing each record afresh gives.
    batch = generate_json_records(
        n_records, fields_per_record=fields_per_record, seed=seed
    )
    assert list(batch.sizes) == [estimate_size(r) for r in batch.items]
    assert estimate_size(batch) == estimate_size(list(batch.items))
