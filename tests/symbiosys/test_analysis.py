"""Tests for the three analysis scripts and the Zipkin adapter."""

import json

import pytest

from repro.analysis import percentile
from repro.sim import LocalClock
from repro.symbiosys import Stage, push
from repro.symbiosys.analysis import (
    blocked_ult_samples,
    estimate_clock_offsets,
    ofi_events_series,
    profile_summary,
    stitch_traces,
    system_summary,
    trace_summary,
)
from repro.symbiosys.zipkin import request_to_zipkin, to_zipkin_json
from .conftest import drive_requests, make_instrumented_world


def run_world(stage=Stage.FULL, n_requests=3, **kw):
    world = make_instrumented_world(stage, **kw)
    results = drive_requests(world, n_requests)
    world.sim.run(until=1.0)
    assert len(results) == n_requests
    return world


# ------------------------------------------------------------ profile summary


def test_profile_summary_ranks_by_cumulative_latency():
    world = run_world(n_requests=4)
    summary = profile_summary(world.collector)
    assert len(summary.rows) == 2
    # The root callpath subsumes the nested ones, so it dominates.
    assert summary.rows[0].name == "front_op"
    assert summary.rows[1].name == "front_op -> leaf_op"
    assert (
        summary.rows[0].cumulative_latency > summary.rows[1].cumulative_latency
    )


def test_profile_summary_counts_and_entities():
    n = 4
    world = run_world(n_requests=n)
    summary = profile_summary(world.collector)
    root = summary.row_for("front_op")
    nested = summary.row_for("front_op -> leaf_op")
    assert root.call_count == n
    assert nested.call_count == 2 * n
    assert root.origin_counts == {"cli": n}
    assert root.target_counts == {"front": n}
    assert nested.origin_counts == {"front": 2 * n}
    assert nested.target_counts == {"back": 2 * n}


def test_profile_summary_breakdown_fractions():
    world = run_world(n_requests=3)
    summary = profile_summary(world.collector)
    nested = summary.row_for("front_op -> leaf_op")
    # Execution dominates the leaf RPC (200us of compute per call).
    assert nested.fraction("target_execution_time") > 0.5
    assert 0 <= nested.fraction("input_deserialization_time") < 0.2


def test_profile_summary_unaccounted_non_trivial():
    world = run_world(n_requests=3)
    summary = profile_summary(world.collector)
    nested = summary.row_for("front_op -> leaf_op")
    # Wire time and progress delays are never directly instrumented.
    assert nested.unaccounted_time > 0
    assert nested.unaccounted_time < nested.cumulative_latency


def test_profile_summary_render_mentions_paths_and_percentages():
    world = run_world(n_requests=2)
    text = profile_summary(world.collector).render()
    assert "front_op -> leaf_op" in text
    assert "%" in text
    assert "(unaccounted)" in text


def test_profile_summary_latency_distribution():
    world = run_world(n_requests=6)
    summary = profile_summary(world.collector)
    row = summary.row_for("front_op")
    assert row.latency_stats.count == 6
    p0 = row.latency_stats.minimum
    p50 = percentile(row.latency_stats.samples(), 50)
    p100 = row.latency_stats.maximum
    assert 0 < p0 <= p50 <= p100
    assert p100 >= row.mean_latency >= p0


def test_profile_summary_row_for_missing_raises():
    world = run_world(n_requests=1)
    summary = profile_summary(world.collector)
    with pytest.raises(KeyError):
        summary.row_for("nope")


# ------------------------------------------------------------ trace summary


def test_stitch_reconstructs_request_trees():
    world = run_world(n_requests=2)
    summary = trace_summary(world.collector)
    assert len(summary.requests) == 2
    for req in summary.requests.values():
        assert len(req.roots) == 1
        root = req.roots[0]
        assert root.rpc_name == "front_op"
        assert len(root.children) == 2
        assert all(c.rpc_name == "leaf_op" for c in root.children)


def test_discrete_calls_listing():
    world = run_world(n_requests=1)
    summary = trace_summary(world.collector)
    (req,) = summary.requests.values()
    assert req.discrete_calls() == ["leaf_op", "leaf_op"]


def test_spans_complete_with_ordered_timestamps():
    world = run_world(n_requests=1)
    summary = trace_summary(world.collector)
    (req,) = summary.requests.values()
    for span in req.roots[0].walk():
        assert span.complete
        assert span.t1 <= span.t5 <= span.t8 <= span.t14


def test_structure_signature_groups_identical_requests():
    world = run_world(n_requests=3)
    summary = trace_summary(world.collector)
    counts = summary.structure_counts()
    assert len(counts) == 1
    assert list(counts.values()) == [3]


def test_end_to_end_latency_positive():
    world = run_world(n_requests=2)
    summary = trace_summary(world.collector)
    for req in summary.requests.values():
        assert req.end_to_end_latency > 400e-6


def test_clock_offset_estimation_recovers_skew():
    offsets_in = {"front": 0.05, "back": -0.02}
    world = make_instrumented_world(
        Stage.FULL,
        clocks={k: LocalClock(offset=v) for k, v in offsets_in.items()},
    )
    results = drive_requests(world, 5)
    world.sim.run(until=1.0)
    assert len(results) == 5
    events = world.collector.all_events()
    est = estimate_clock_offsets(events)
    # The anchor process is arbitrary; relative offsets are what matters
    # (symmetric network => the NTP-style estimate recovers them).
    assert est["front"] - est["cli"] == pytest.approx(0.05, abs=2e-3)
    assert est["back"] - est["cli"] == pytest.approx(-0.02, abs=2e-3)


def test_skew_correction_restores_span_ordering():
    world = make_instrumented_world(
        Stage.FULL, clocks={"back": LocalClock(offset=-10.0)}
    )
    results = drive_requests(world, 2)
    world.sim.run(until=1.0)
    assert len(results) == 2
    summary = trace_summary(world.collector)
    for req in summary.requests.values():
        for span in req.roots[0].walk():
            # Without correction the back-process timestamps would sit 10s
            # before the client's.
            assert span.t1 <= span.t5 <= span.t8 <= span.t14


def test_trace_summary_render():
    world = run_world(n_requests=2)
    text = trace_summary(world.collector).render()
    assert "requests: 2" in text


def test_slowest_ranking():
    world = run_world(n_requests=4)
    summary = trace_summary(world.collector)
    slowest = summary.slowest(2)
    assert len(slowest) == 2
    assert (
        slowest[0].end_to_end_latency >= slowest[1].end_to_end_latency
    )


# ------------------------------------------------------------ figure extractors


def test_blocked_ult_samples_extracted():
    world = run_world(n_requests=3)
    samples = blocked_ult_samples(world.collector.all_events())
    # One sample per handler start: 3 front + 6 leaf.
    assert len(samples) == 9
    ts = [s[0] for s in samples]
    assert ts == sorted(ts)
    only_back = blocked_ult_samples(world.collector.all_events(), "back")
    assert len(only_back) == 6
    assert all(p == "back" for _, _, p in only_back)


def test_ofi_events_series_extracted():
    world = run_world(Stage.FULL, n_requests=3)
    series = ofi_events_series(world.collector.all_events(), "cli")
    assert len(series) == 3  # one ORIGIN_COMPLETE per front_op on cli
    assert all(v >= 1 for _, v in series)


def test_ofi_events_series_empty_at_stage2():
    world = run_world(Stage.STAGE2, n_requests=2)
    series = ofi_events_series(world.collector.all_events())
    assert series == []


# ------------------------------------------------------------ system summary


def test_system_summary_per_process():
    world = run_world(n_requests=3)
    summary = system_summary(world.collector.all_events())
    assert set(summary.per_process) == {"cli", "front", "back"}
    for stats in summary.per_process.values():
        assert stats.samples > 0
        assert 0.0 <= stats.mean_cpu <= 1.0


def test_system_summary_render():
    world = run_world(n_requests=1)
    text = system_summary(world.collector.all_events()).render()
    assert "max_blocked" in text
    assert "cli" in text


# ------------------------------------------------------------ zipkin export


def test_zipkin_spans_reference_parents():
    world = run_world(n_requests=1)
    summary = trace_summary(world.collector)
    (req,) = summary.requests.values()
    spans = request_to_zipkin(req)
    assert len(spans) == 3
    by_id = {s["id"]: s for s in spans}
    roots = [s for s in spans if "parentId" not in s]
    children = [s for s in spans if "parentId" in s]
    assert len(roots) == 1
    assert len(children) == 2
    for child in children:
        assert child["parentId"] == roots[0]["id"]
        assert child["traceId"] == roots[0]["traceId"]


def test_zipkin_span_fields():
    world = run_world(n_requests=1)
    summary = trace_summary(world.collector)
    (req,) = summary.requests.values()
    root = [s for s in request_to_zipkin(req) if "parentId" not in s][0]
    assert root["name"] == "front_op"
    assert root["localEndpoint"] == {"serviceName": "cli"}
    assert root["remoteEndpoint"] == {"serviceName": "front"}
    assert root["duration"] >= 1
    assert root["tags"]["callpath"].startswith("0x")
    annotations = {a["value"] for a in root["annotations"]}
    assert "target ULT start (t5)" in annotations


def test_zipkin_json_is_valid_and_loadable():
    world = run_world(n_requests=2)
    summary = trace_summary(world.collector)
    doc = to_zipkin_json(summary.requests.values())
    spans = json.loads(doc)
    assert len(spans) == 6
    for span in spans:
        assert {"traceId", "id", "name", "timestamp"} <= set(span)


def test_zipkin_pvar_tags_fused():
    world = run_world(Stage.FULL, n_requests=1)
    summary = trace_summary(world.collector)
    (req,) = summary.requests.values()
    spans = request_to_zipkin(req)
    tagged = [s for s in spans if any(k.startswith("pvar.") for k in s["tags"])]
    assert tagged, "expected PVAR tags on at least one span"
