"""Integration tests: instrumentation hooks over a live Mochi chain."""

import pytest

from repro.symbiosys import (
    EventKind,
    ProfileKey,
    Stage,
    hash16,
    push,
)
from .conftest import drive_requests, make_instrumented_world


def run_world(stage=Stage.FULL, n_requests=3, **kw):
    world = make_instrumented_world(stage, **kw)
    results = drive_requests(world, n_requests)
    world.sim.run(until=1.0)
    assert len(results) == n_requests, "workload did not complete"
    return world


# ------------------------------------------------------------ callpaths


def test_callpath_chain_propagates_across_processes():
    world = run_world(n_requests=1)
    target_prof = world.collector.merged_target_profile()
    codes = {key.callpath for key in target_prof.keys()}
    root = push(0, "front_op")
    nested = push(root, "leaf_op")
    assert root in codes
    assert nested in codes


def test_callpath_profile_keys_identify_origin_and_target():
    world = run_world(n_requests=1)
    origin_prof = world.collector.merged_origin_profile()
    keys = set(origin_prof.keys())
    root = push(0, "front_op")
    nested = push(root, "leaf_op")
    assert ProfileKey(root, "cli", "front") in keys
    assert ProfileKey(nested, "front", "back") in keys


def test_registry_decodes_observed_callpaths():
    world = run_world(n_requests=1)
    reg = world.collector.registry
    nested = push(push(0, "front_op"), "leaf_op")
    assert reg.decode(nested) == "front_op -> leaf_op"


def test_call_counts_match_workload():
    n = 5
    world = run_world(n_requests=n)
    origin_prof = world.collector.merged_origin_profile()
    root_key = ProfileKey(push(0, "front_op"), "cli", "front")
    nested_key = ProfileKey(push(push(0, "front_op"), "leaf_op"), "front", "back")
    assert origin_prof.get(root_key, "origin_execution_time").count == n
    # Each front_op fans out into two leaf_ops.
    assert origin_prof.get(nested_key, "origin_execution_time").count == 2 * n


# ------------------------------------------------------------ intervals


def test_origin_execution_time_positive_and_sensible():
    world = run_world(n_requests=2)
    origin_prof = world.collector.merged_origin_profile()
    root_key = ProfileKey(push(0, "front_op"), "cli", "front")
    stats = origin_prof.get(root_key, "origin_execution_time")
    # Each front_op does two ~200us leaf calls plus overhead.
    assert stats.minimum > 400e-6
    assert stats.maximum < 10e-3


def test_target_intervals_recorded():
    world = run_world(n_requests=2)
    target_prof = world.collector.merged_target_profile()
    nested_key = ProfileKey(push(push(0, "front_op"), "leaf_op"), "front", "back")
    exec_stats = target_prof.get(nested_key, "target_execution_time")
    assert exec_stats is not None and exec_stats.count == 4
    assert exec_stats.total / exec_stats.count > 200e-6  # includes the Compute(200us)
    handler = target_prof.get(nested_key, "target_handler_time")
    assert handler is not None and handler.minimum >= 0
    cb = target_prof.get(nested_key, "target_completion_callback_time")
    assert cb is not None and cb.minimum > 0


def test_exclusive_time_subtracts_children():
    world = run_world(n_requests=2)
    target_prof = world.collector.merged_target_profile()
    root_key = ProfileKey(push(0, "front_op"), "cli", "front")
    incl = target_prof.get(root_key, "target_execution_time")
    excl = target_prof.get(root_key, "target_execution_time_exclusive")
    # front_op's inclusive time contains two ~200us children; exclusive
    # strips them.
    assert incl.total / incl.count > 400e-6
    assert excl.total / excl.count < incl.total / incl.count / 2
    assert excl.minimum >= 0


def test_pvar_intervals_fused_at_full_stage():
    world = run_world(Stage.FULL, n_requests=2)
    target_prof = world.collector.merged_target_profile()
    nested_key = ProfileKey(push(push(0, "front_op"), "leaf_op"), "front", "back")
    deser = target_prof.get(nested_key, "input_deserialization_time")
    oser = target_prof.get(nested_key, "output_serialization_time")
    assert deser is not None and deser.total > 0
    assert oser is not None and oser.total > 0
    origin_prof = world.collector.merged_origin_profile()
    root_key = ProfileKey(push(0, "front_op"), "cli", "front")
    iser = origin_prof.get(root_key, "input_serialization_time")
    assert iser is not None and iser.total > 0


# ------------------------------------------------------------ stages


def test_stage_off_collects_nothing():
    world = run_world(Stage.OFF, n_requests=2)
    assert world.collector.total_trace_events == 0
    assert len(world.collector.merged_origin_profile().keys()) == 0
    assert len(world.collector.merged_target_profile().keys()) == 0


def test_stage1_propagates_but_does_not_measure():
    world = run_world(Stage.STAGE1, n_requests=2)
    assert world.collector.total_trace_events == 0
    assert len(world.collector.merged_origin_profile().keys()) == 0


def test_stage2_profiles_without_pvars():
    world = run_world(Stage.STAGE2, n_requests=2)
    assert world.collector.total_trace_events > 0
    origin_prof = world.collector.merged_origin_profile()
    root_key = ProfileKey(push(0, "front_op"), "cli", "front")
    assert origin_prof.get(root_key, "origin_execution_time") is not None
    # PVAR-derived intervals absent at stage 2.
    assert origin_prof.get(root_key, "input_serialization_time") is None
    # And Mercury PVAR collection is off.
    assert not world.client.hg.pvars_enabled


def test_full_stage_enables_mercury_pvars():
    world = run_world(Stage.FULL, n_requests=1)
    assert world.client.hg.pvars_enabled
    assert world.front.hg.pvars_enabled


# ------------------------------------------------------------ trace events


def test_trace_event_kinds_per_rpc():
    world = run_world(n_requests=1)
    events = world.collector.all_events()
    # 3 RPCs per request (1 front_op + 2 leaf_op), 4 events each.
    assert len(events) == 12
    kinds = [e.kind for e in events]
    assert kinds.count(EventKind.ORIGIN_FORWARD) == 3
    assert kinds.count(EventKind.ORIGIN_COMPLETE) == 3
    assert kinds.count(EventKind.TARGET_ULT_START) == 3
    assert kinds.count(EventKind.TARGET_RESPOND) == 3


def test_all_events_share_request_id():
    world = run_world(n_requests=1)
    events = world.collector.all_events()
    rids = {e.request_id for e in events}
    assert len(rids) == 1


def test_separate_requests_have_separate_ids():
    world = run_world(n_requests=4)
    events = world.collector.all_events()
    rids = {e.request_id for e in events}
    assert len(rids) == 4


def test_lamport_respects_happened_before():
    world = run_world(n_requests=2)
    events = world.collector.all_events()
    by_span = {}
    for ev in events:
        by_span.setdefault(ev.span_id, {})[ev.kind] = ev
    for quad in by_span.values():
        of = quad[EventKind.ORIGIN_FORWARD]
        tus = quad[EventKind.TARGET_ULT_START]
        tr = quad[EventKind.TARGET_RESPOND]
        oc = quad[EventKind.ORIGIN_COMPLETE]
        assert of.lamport < tus.lamport < tr.lamport < oc.lamport


def test_span_parentage_links_nested_rpcs():
    world = run_world(n_requests=1)
    events = world.collector.all_events()
    root_spans = {
        e.span_id for e in events if e.rpc_name == "front_op"
    }
    leaf_parents = {
        e.parent_span_id for e in events if e.rpc_name == "leaf_op"
    }
    assert len(root_spans) == 1
    assert leaf_parents == root_spans


def test_sysstats_attached_to_events():
    world = run_world(n_requests=1)
    for ev in world.collector.all_events():
        assert "num_blocked" in ev.sysstats
        assert "memory_bytes" in ev.sysstats
        assert 0.0 <= ev.sysstats["cpu_util"] <= 1.0


def test_pvars_attached_to_completion_events_at_full():
    world = run_world(Stage.FULL, n_requests=1)
    completes = [
        e
        for e in world.collector.all_events()
        if e.kind is EventKind.ORIGIN_COMPLETE
    ]
    for ev in completes:
        assert "num_ofi_events_read" in ev.pvars
        assert ev.pvars["input_serialization_time"] > 0


def test_handler_start_event_carries_t4_and_handler_time():
    world = run_world(n_requests=1)
    starts = [
        e
        for e in world.collector.all_events()
        if e.kind is EventKind.TARGET_ULT_START
    ]
    for ev in starts:
        assert "t4" in ev.data
        assert ev.data["target_handler_time"] >= 0


def test_local_timestamps_use_skewed_clock():
    from repro.sim import LocalClock

    world = make_instrumented_world(
        Stage.FULL, clocks={"back": LocalClock(offset=100.0)}
    )
    results = drive_requests(world, 1)
    world.sim.run(until=1.0)
    assert results
    back_events = [
        e for e in world.collector.all_events() if e.process == "back"
    ]
    other = [e for e in world.collector.all_events() if e.process != "back"]
    assert all(e.local_ts > 99.0 for e in back_events)
    assert all(e.local_ts < 1.0 for e in other)


def test_events_count_scales_with_requests():
    w1 = run_world(n_requests=1)
    w5 = run_world(n_requests=5)
    assert w5.collector.total_trace_events == 5 * w1.collector.total_trace_events
