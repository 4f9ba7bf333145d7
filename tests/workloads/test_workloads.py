"""Tests for the workload generators (ior, synthetic files, JSON records)."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

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
