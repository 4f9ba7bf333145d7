"""Smoke and invariant tests for the experiment harnesses (scaled-down)."""

import pytest

from repro.experiments import (
    TABLE_IV,
    run_hepnos_experiment,
    run_mobject_experiment,
    run_overhead_study,
    run_sonata_experiment,
    time_analysis_scripts,
)
from repro.experiments.overhead import OVERHEAD_STAGES
from repro.experiments.presets import THETA_KNL
from repro.symbiosys import Stage
from repro.symbiosys.zipkin import request_to_zipkin
from repro.workloads import IorConfig

SMALL = TABLE_IV["C2"].scaled(
    name="small", total_clients=4, clients_per_node=2, total_servers=2,
    servers_per_node=1, threads=4, databases=8,
)


@pytest.fixture(scope="module")
def small_result():
    return run_hepnos_experiment(SMALL, events_per_client=256)


def test_hepnos_experiment_stores_all_events(small_result):
    assert small_result.events_stored == 4 * 256
    assert small_result.makespan > 0


def test_hepnos_experiment_profiles_put_packed(small_result):
    row = small_result.put_packed_row()
    assert row.call_count == small_result.rpcs_issued
    assert row.cumulative_latency > 0


def test_hepnos_target_breakdown_components(small_result):
    breakdown = small_result.target_breakdown()
    assert set(breakdown) == {
        "target_handler_time",
        "target_execution_time",
        "target_completion_callback_time",
    }
    assert all(v >= 0 for v in breakdown.values())
    assert breakdown["target_execution_time"] > 0


def test_hepnos_unaccounted_non_negative(small_result):
    assert 0 <= small_result.unaccounted_time <= small_result.cumulative_origin_time
    assert 0 <= small_result.unaccounted_fraction < 1


def test_hepnos_series_extractors(small_result):
    ofi = small_result.ofi_series()
    assert len(ofi) == small_result.rpcs_issued
    blocked = small_result.blocked_samples()
    assert len(blocked) == small_result.rpcs_issued


def test_hepnos_experiment_deterministic():
    r1 = run_hepnos_experiment(SMALL, events_per_client=128, seed=3)
    r2 = run_hepnos_experiment(SMALL, events_per_client=128, seed=3)
    assert r1.makespan == r2.makespan
    assert r1.cumulative_origin_time == r2.cumulative_origin_time


def test_hepnos_experiment_timeout_errors():
    with pytest.raises(RuntimeError, match="did not finish"):
        run_hepnos_experiment(SMALL, events_per_client=256, time_limit=1e-6)


def test_mobject_experiment_smoke():
    result = run_mobject_experiment(
        n_clients=3,
        ior_config=IorConfig(objects_per_client=2, transfer_size=4096,
                             read_iterations=1),
    )
    summary = result.summary
    names = {row.name for row in summary.rows}
    assert "mobject_write_op" in names
    assert "mobject_read_op -> sdskv_list_keyvals_rpc" in names
    trace = result.write_op_trace()
    assert trace is not None
    assert len(trace.discrete_calls()) == 12
    spans = request_to_zipkin(trace)
    assert len(spans) == 13  # root + 12 children


def test_mobject_experiment_applies_preset_to_every_process():
    result = run_mobject_experiment(
        n_clients=1,
        ior_config=IorConfig(objects_per_client=1, read_iterations=1),
        preset=THETA_KNL,
    )
    processes = result.cluster.processes
    assert sorted(processes) == ["ior0", "mobject0"]
    for mi in processes.values():
        assert mi.hg.serialization == THETA_KNL.serialization
        assert mi.hg.config == THETA_KNL.hg_config()
        assert mi.rt.ctx_switch_cost == THETA_KNL.ctx_switch_cost


def test_sonata_experiment_smoke():
    result = run_sonata_experiment(n_records=1000, batch_size=200)
    breakdown = result.target_execution_breakdown()
    assert breakdown["input_deserialization_time"] > 0
    assert breakdown["document_store_time"] > 0
    assert 0 < result.deserialization_fraction < 1


def test_overhead_study_runs_all_stages():
    study = run_overhead_study(
        config=SMALL, repetitions=1, events_per_client=64
    )
    assert set(study.timings) == set(OVERHEAD_STAGES)
    rows = study.rows()
    assert len(rows) == 4
    # Baseline collects no trace events; full support collects plenty.
    assert study.timings[Stage.OFF].trace_events == 0
    assert study.timings[Stage.FULL].trace_events > 0
    # Simulated makespan must be identical across stages (instrumentation
    # adds no simulated cost).
    makespans = {round(t.mean_makespan, 12) for t in study.timings.values()}
    assert len(makespans) == 1


def test_overhead_study_stage_subset_renders_and_records(tmp_path):
    from repro.store import PerfStore, record_overhead_study
    from repro.symbiosys.monitor import MonitorConfig

    study = run_overhead_study(
        config=SMALL, repetitions=1, events_per_client=32,
        stages=(Stage.OFF, Stage.FULL), monitoring=MonitorConfig(),
    )
    rows = study.rows()
    assert [r["stage"] for r in rows] == [
        "Baseline", "Full Support", "Full + monitor",
    ]
    assert rows[0]["overhead_vs_baseline"] == 0.0
    with PerfStore(str(tmp_path / "perf.db")) as store:
        run_id = record_overhead_study(store, study)
        assert store.run(run_id)["kind"] == "overhead"
        assert len(store.series_keys(run_id)) == 2 * len(rows)


def test_overhead_study_needs_baseline_stage():
    with pytest.raises(ValueError, match="Stage.OFF"):
        run_overhead_study(
            config=SMALL, repetitions=1, events_per_client=32,
            stages=(Stage.STAGE1, Stage.FULL),
        )


def test_overhead_study_interleaves_cells_rep_major(monkeypatch):
    import repro.experiments.overhead as overhead
    from repro.symbiosys.monitor import MonitorConfig

    order = []

    def fake_map_cells(worker, cells, jobs=1):
        outs = []
        for cell in cells:
            order.append((cell["seed"], cell["stage"],
                          cell["monitoring"] is not None))
            outs.append({"wall": 1.0, "makespan": 1.0, "trace_events": 0})
        return outs

    monkeypatch.setattr(overhead, "map_cells", fake_map_cells)
    study = overhead.run_overhead_study(
        config=SMALL, repetitions=2, stages=(Stage.OFF, Stage.FULL),
        monitoring=MonitorConfig(),
    )
    assert order == [
        (1000, Stage.OFF, False), (1000, Stage.FULL, False),
        (1000, Stage.FULL, True),
        (1001, Stage.OFF, False), (1001, Stage.FULL, False),
        (1001, Stage.FULL, True),
    ]
    assert len(study.monitored.wall_times) == 2


def test_time_analysis_scripts():
    result = run_hepnos_experiment(SMALL, events_per_client=128)
    timings = time_analysis_scripts(result)
    assert timings.profile_summary_s >= 0
    assert timings.trace_summary_s >= 0
    assert timings.system_summary_s >= 0
    assert timings.trace_events == result.collector.total_trace_events
    assert timings.rows()[0]["trace events"] == timings.trace_events
