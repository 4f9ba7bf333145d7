"""Tests for the PVAR subsystem and the external tool interface."""

import pytest

from repro.mercury import (
    HGConfig,
    PvarBinding,
    PvarClass,
    PvarDef,
    PvarError,
    PvarRegistry,
    PvarTable,
)
from .conftest import call_rpc, make_world, serve_echo


# ------------------------------------------------------ registry unit tests


def _define(reg, pvar_def, owner=None):
    """Define one PVAR the way a library defines its table."""
    reg.define_table(PvarTable((pvar_def,)), owner)


def test_registry_define_and_info():
    reg = PvarRegistry()
    _define(
        reg,
        PvarDef("c", PvarClass.COUNTER, PvarBinding.NO_OBJECT, "a counter")
    )
    assert reg.num_pvars == 1
    info = reg.info(0)
    assert info.name == "c"
    assert info.pvar_class is PvarClass.COUNTER


def test_registry_duplicate_name_rejected():
    reg = PvarRegistry()
    d = PvarDef("c", PvarClass.COUNTER, PvarBinding.NO_OBJECT, "x")
    _define(reg, d)
    with pytest.raises(PvarError):
        _define(reg, d)


def test_registry_counter_monotonic():
    reg = PvarRegistry()
    _define(reg, PvarDef("c", PvarClass.COUNTER, PvarBinding.NO_OBJECT, "x"))
    reg.add("c", 5)
    reg.add("c", 2)
    assert reg.raw_value("c") == 7
    with pytest.raises(PvarError):
        reg.add("c", -1)


def test_registry_level_can_fall():
    reg = PvarRegistry()
    _define(reg, PvarDef("l", PvarClass.LEVEL, PvarBinding.NO_OBJECT, "x"))
    reg.add("l", 3)
    reg.add("l", -2)
    assert reg.raw_value("l") == 1


def test_registry_watermarks():
    reg = PvarRegistry()
    _define(reg, PvarDef("hi", PvarClass.HIGHWATERMARK, PvarBinding.NO_OBJECT, "x"))
    _define(reg, PvarDef("lo", PvarClass.LOWWATERMARK, PvarBinding.NO_OBJECT, "x"))
    for v in (5, 3, 9, 1):
        reg.watermark("hi", v)
        reg.watermark("lo", v)
    assert reg.raw_value("hi") == 9
    assert reg.raw_value("lo") == 1


def test_registry_watermark_on_counter_rejected():
    reg = PvarRegistry()
    _define(reg, PvarDef("c", PvarClass.COUNTER, PvarBinding.NO_OBJECT, "x"))
    with pytest.raises(PvarError):
        reg.watermark("c", 1)


def test_registry_getter_pvar_cannot_be_set():
    reg = PvarRegistry()
    _define(
        reg,
        PvarDef("g", PvarClass.STATE, PvarBinding.NO_OBJECT, "x", getter=lambda _: 42)
    )
    assert reg.raw_value("g") == 42
    with pytest.raises(PvarError):
        reg.set("g", 1)


def test_registry_handle_bound_cannot_be_set_globally():
    reg = PvarRegistry()
    _define(reg, PvarDef("t", PvarClass.TIMER, PvarBinding.HANDLE, "x"))
    with pytest.raises(PvarError):
        reg.set("t", 1.0)
    with pytest.raises(PvarError):
        reg.raw_value("t")


def test_registry_unknown_name():
    reg = PvarRegistry()
    with pytest.raises(PvarError):
        reg.index_of("nope")
    with pytest.raises(PvarError):
        reg.info(0)


def test_registry_getter_reads_its_owner():
    reg = PvarRegistry()
    owner = {"depth": 3}
    _define(
        reg,
        PvarDef("g", PvarClass.LEVEL, PvarBinding.NO_OBJECT, "x",
                getter=lambda o: o["depth"]),
        owner,
    )
    read = reg.reader("g")
    assert reg.raw_value("g") == read() == 3
    owner["depth"] = 5
    assert reg.raw_value("g") == read() == 5


def test_stored_reader_follows_later_writes():
    reg = PvarRegistry()
    _define(reg, PvarDef("c", PvarClass.COUNTER, PvarBinding.NO_OBJECT, "x"))
    read = reg.reader("c")
    reg.add("c", 2)
    assert read() == 2
    reg.add("c")
    assert read() == 3


def _every_class_table():
    """One definition of every class and binding, two getter-backed."""
    return PvarTable(
        tuple(
            PvarDef(f"p_{c.name.lower()}", c, PvarBinding.NO_OBJECT, "x")
            for c in PvarClass
        )
        + (
            PvarDef("h", PvarClass.TIMER, PvarBinding.HANDLE, "x"),
            PvarDef("g1", PvarClass.LEVEL, PvarBinding.NO_OBJECT, "x",
                    getter=lambda o: o["depth"]),
            PvarDef("g2", PvarClass.STATE, PvarBinding.NO_OBJECT, "x",
                    getter=lambda o: -o["depth"]),
        )
    )


def test_define_table_matches_one_define_per_definition():
    """A table taken in one step, after other definitions, gives the
    same schema, slots and values as defining its entries one by one."""
    table = _every_class_table()
    first = PvarDef("first", PvarClass.COUNTER, PvarBinding.NO_OBJECT, "x")
    owner = {"depth": 4}
    bulk, single = PvarRegistry(), PvarRegistry()
    for reg in (bulk, single):
        _define(reg, first)
    bulk.define_table(table, owner)
    for d in table.defs:
        _define(single, d, owner)
    assert bulk.names == single.names
    assert [bulk.info(i) for i in range(bulk.num_pvars)] == [
        single.info(i) for i in range(single.num_pvars)
    ]
    assert bulk.slot_values == single.slot_values
    assert bulk.slot_values[bulk.index_of("p_lowwatermark")] is None
    assert bulk.slot_values[bulk.index_of("p_timer")] == 0.0
    assert bulk.raw_value("g1") == 4 and bulk.raw_value("g2") == -4
    # The table itself is not shared state: a second registry's values
    # are its own.
    other = PvarRegistry()
    other.define_table(table, {"depth": 1})
    bulk.add("p_counter", 3)
    assert other.raw_value("p_counter") == 0 and other.raw_value("g1") == 1
    assert table.template[table.index["p_counter"]] == 0


def test_define_table_rejects_a_duplicate_and_changes_nothing():
    table = _every_class_table()
    reg = PvarRegistry()
    _define(reg, PvarDef("g2", PvarClass.LEVEL, PvarBinding.NO_OBJECT, "x"))
    with pytest.raises(PvarError, match="g2"):
        reg.define_table(table)
    assert reg.names == ("g2",) and reg.slot_values == [0]
    with pytest.raises(PvarError, match="dup"):
        PvarTable((
            PvarDef("dup", PvarClass.LEVEL, PvarBinding.NO_OBJECT, "x"),
            PvarDef("dup", PvarClass.COUNTER, PvarBinding.NO_OBJECT, "y"),
        ))


# ------------------------------------------------------ definitions per class


def test_instances_share_definitions_and_read_their_own_state(world):
    a, b = world.cli.hg, world.svr.hg
    assert a.pvars.num_pvars == b.pvars.num_pvars
    for i in range(a.pvars.num_pvars):
        assert a.pvars.info(i) is b.pvars.info(i)

    a._completion_queue.append(lambda: None)
    a._completion_queue.append(lambda: None)
    read_a = a.pvar_session_init().reader("completion_queue_size")
    read_b = b.pvar_session_init().reader("completion_queue_size")
    assert (read_a(), read_b()) == (2, 0)
    assert a.pvars.raw_value("completion_queue_size") == 2
    assert b.pvars.raw_value("completion_queue_size") == 0
    a._completion_queue.popleft()
    assert (read_a(), read_b()) == (1, 0)

    # Stored values are per instance too.
    a.pvars.add("num_rpcs_invoked", 4)
    assert a.pvars.raw_value("num_rpcs_invoked") == 4
    assert b.pvars.raw_value("num_rpcs_invoked") == 0


def test_shared_getter_pvar_still_refuses_updates(world):
    hg = world.svr.hg
    for update in (hg.pvars.set, hg.pvars.add, hg.pvars.watermark):
        with pytest.raises(PvarError, match="is computed"):
            update("completion_queue_size", 1)
    with pytest.raises(PvarError, match="HANDLE-bound"):
        hg.pvars.reader("input_serialization_time")
    with pytest.raises(PvarError, match="HANDLE-bound"):
        hg.pvar_session_init().reader("bulk_transfer_time")


def test_session_ids_count_per_registry():
    sessions = []
    for _ in range(2):
        _, sides = make_world()
        hg = sides["svr"].hg
        sessions.append(
            [hg.pvar_session_init().session_id for _ in range(3)]
        )
    # A second identical world numbers its sessions the same way.
    assert sessions == [[1, 2, 3], [1, 2, 3]]


# ------------------------------------------------------ Table I / II coverage


def test_all_seven_pvar_classes_exported(world):
    """Table I: every PVAR class is represented by at least one exported
    PVAR."""
    sess = world.svr.hg.pvar_session_init()
    classes = {
        sess.get_info(i).pvar_class for i in range(sess.get_num_pvars())
    }
    assert classes == set(PvarClass)


TABLE_II = {
    "num_posted_handles": (PvarClass.LEVEL, PvarBinding.NO_OBJECT),
    "completion_queue_size": (PvarClass.STATE, PvarBinding.NO_OBJECT),
    "num_ofi_events_read": (PvarClass.LEVEL, PvarBinding.NO_OBJECT),
    "num_rpcs_invoked": (PvarClass.COUNTER, PvarBinding.NO_OBJECT),
    "internal_rdma_transfer_time": (PvarClass.TIMER, PvarBinding.HANDLE),
    "input_serialization_time": (PvarClass.TIMER, PvarBinding.HANDLE),
    "input_deserialization_time": (PvarClass.TIMER, PvarBinding.HANDLE),
    "origin_completion_callback_time": (PvarClass.TIMER, PvarBinding.HANDLE),
}


def test_table_ii_pvars_present_with_correct_class_and_binding(world):
    sess = world.cli.hg.pvar_session_init()
    infos = {
        sess.get_info(i).name: sess.get_info(i)
        for i in range(sess.get_num_pvars())
    }
    for name, (cls, binding) in TABLE_II.items():
        assert name in infos, f"missing Table II PVAR {name}"
        assert infos[name].pvar_class is cls
        assert infos[name].binding is binding


# ------------------------------------------------------ session protocol


def test_session_protocol_full_cycle(world):
    serve_echo(world.svr)
    results = []
    call_rpc(world.cli, "svr", "echo", {"k": 1}, results)
    world.sim.run(until=0.05)

    sess = world.cli.hg.pvar_session_init()
    n = sess.get_num_pvars()
    assert n >= len(TABLE_II)
    ph = sess.handle_alloc_by_name("num_rpcs_invoked")
    assert sess.read(ph) == 1
    sess.handle_free(ph)
    sess.finalize()
    with pytest.raises(PvarError, match="already finalized"):
        sess.get_num_pvars()


def test_session_read_handle_bound_requires_hg_handle(world):
    serve_echo(world.svr)
    results = []
    call_rpc(world.cli, "svr", "echo", {}, results)
    world.sim.run(until=0.05)
    sess = world.cli.hg.pvar_session_init()
    ph = sess.handle_alloc_by_name("input_serialization_time")
    with pytest.raises(PvarError):
        sess.read(ph)
    origin_handle = results[0][1]
    assert sess.read(ph, origin_handle) > 0


def test_session_finalized_rejects_use(world):
    sess = world.cli.hg.pvar_session_init()
    sess.finalize()
    with pytest.raises(PvarError):
        sess.get_num_pvars()
    with pytest.raises(PvarError):
        sess.finalize()


def test_session_freed_handle_rejects_read(world):
    sess = world.cli.hg.pvar_session_init()
    ph = sess.handle_alloc_by_name("num_rpcs_invoked")
    sess.handle_free(ph)
    with pytest.raises(PvarError):
        sess.read(ph)
    with pytest.raises(PvarError):
        sess.handle_free(ph)


def test_session_cross_session_handle_rejected(world):
    s1 = world.cli.hg.pvar_session_init()
    s2 = world.cli.hg.pvar_session_init()
    ph = s1.handle_alloc_by_name("num_rpcs_invoked")
    with pytest.raises(PvarError):
        s2.read(ph)


def test_sessions_have_unique_ids(world):
    s1 = world.cli.hg.pvar_session_init()
    s2 = world.cli.hg.pvar_session_init()
    assert s1.session_id != s2.session_id


# ------------------------------------------------------ PVAR values from real RPCs


def test_origin_handle_timers_recorded(world):
    serve_echo(world.svr)
    results = []
    call_rpc(world.cli, "svr", "echo", {"payload": "x" * 100}, results)
    world.sim.run(until=0.05)
    handle = results[0][1]
    assert handle.pvar_get("input_serialization_time") > 0
    assert handle.pvar_get("origin_completion_callback_time") >= 0


def test_target_handle_timers_recorded(world):
    seen = serve_echo(world.svr)
    results = []
    call_rpc(world.cli, "svr", "echo", {"payload": "y" * 100}, results)
    world.sim.run(until=0.05)
    th = seen[0]
    assert th.pvar_get("input_deserialization_time") > 0
    assert th.pvar_get("output_serialization_time") > 0
    assert th.pvar_get("internal_rdma_transfer_time") == 0.0


def test_eager_overflow_triggers_internal_rdma():
    sim, sides = make_world(hg_config=HGConfig(eager_size=256))
    seen = serve_echo(sides["svr"])
    results = []
    call_rpc(sides["cli"], "svr", "echo", "z" * 5000, results)
    sim.run(until=0.5)
    assert len(results) == 1
    th = seen[0]
    assert th.pvar_get("internal_rdma_transfer_time") > 0
    sess = sides["cli"].hg.pvar_session_init()
    assert sess.read_by_name("eager_overflow_count") == 1


def test_small_payload_does_not_overflow(world):
    serve_echo(world.svr)
    results = []
    call_rpc(world.cli, "svr", "echo", "tiny", results)
    world.sim.run(until=0.05)
    sess = world.cli.hg.pvar_session_init()
    assert sess.read_by_name("eager_overflow_count") == 0


def test_num_rpcs_invoked_counts(world):
    serve_echo(world.svr)
    results = []
    for i in range(5):
        call_rpc(world.cli, "svr", "echo", {"i": i}, results)
    world.sim.run(until=0.5)
    sess = world.cli.hg.pvar_session_init()
    assert sess.read_by_name("num_rpcs_invoked") == 5
    # The server side never invoked an RPC.
    ssess = world.svr.hg.pvar_session_init()
    assert ssess.read_by_name("num_rpcs_invoked") == 0


def test_num_ofi_events_read_tracks_batch(world):
    serve_echo(world.svr)
    results = []
    for i in range(20):
        call_rpc(world.cli, "svr", "echo", {"i": i}, results)
    sess = world.svr.hg.pvar_session_init()
    # (events read, PVAR value) after every server progress iteration.
    reads = []
    world.svr.hg.add_progress_observer(
        lambda now, n: reads.append((n, sess.read_by_name("num_ofi_events_read")))
    )
    world.sim.run(until=0.5)
    cap = world.svr.hg.config.ofi_max_events
    assert all(value == n for n, value in reads)
    assert any(1 <= n <= cap for n, _ in reads)
    hi = sess.read_by_name("max_ofi_events_read")
    lo = sess.read_by_name("min_ofi_events_read")
    assert 1 <= lo <= hi <= cap
    # The last iterations were idle: the LEVEL PVAR reads 0, not the
    # last batch.
    assert reads[-1][0] == 0
    assert sess.read_by_name("num_ofi_events_read") == 0


def test_pvars_disabled_records_nothing():
    sim, sides = make_world(pvars=False)
    seen = serve_echo(sides["svr"])
    results = []
    call_rpc(sides["cli"], "svr", "echo", {}, results)
    sim.run(until=0.5)
    assert len(results) == 1
    handle = results[0][1]
    with pytest.raises(PvarError):
        handle.pvar_get("input_serialization_time")
    sess = sides["cli"].hg.pvar_session_init()
    assert sess.read_by_name("num_rpcs_invoked") == 0


def test_eager_buffer_size_pvar(world):
    sess = world.cli.hg.pvar_session_init()
    assert sess.read_by_name("eager_buffer_size") == world.cli.hg.config.eager_size


def test_hg_config_validation():
    with pytest.raises(ValueError):
        HGConfig(ofi_max_events=0)
    with pytest.raises(ValueError):
        HGConfig(eager_size=-1)
    with pytest.raises(ValueError):
        HGConfig(post_cost=-1.0)
