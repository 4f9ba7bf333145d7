"""The monitor experiment target: online telemetry under injected
faults, artifact export, and the overhead study's monitoring arm."""

import json
import os

import pytest

from repro.experiments import TABLE_IV, run_monitor_experiment, run_overhead_study
from repro.experiments.__main__ import main
from repro.experiments.hepnos import run_hepnos_experiment
from repro.symbiosys.monitor import MonitorConfig

SMALL = TABLE_IV["C2"].scaled(
    name="small", total_clients=4, clients_per_node=2, total_servers=2,
    servers_per_node=1, threads=4, databases=8,
)

#: CI-smoke shape -- still spans the default plan's 0.8 ms restart fault.
SMOKE = dict(n_records=600, batch_size=50)


@pytest.fixture(scope="module")
def smoke_result():
    return run_monitor_experiment(seed=0, **SMOKE)


def test_monitor_experiment_produces_telemetry(smoke_result):
    r = smoke_result
    assert r.batches_ok > 0
    assert r.n_series > 0 and r.n_samples > 0
    assert r.n_sched_slices > 0 and r.sampler_ticks > 0
    report = r.report()
    assert "artifact digests" in report
    assert f"seed={r.seed}" in report


def test_monitor_experiment_detects_injected_faults(smoke_result):
    # The restart fault (server down 0.8-1.2 ms) starves the progress
    # loop; the retry storm around it trips the timeout-burst detector.
    fired = {f.detector for f in smoke_result.findings}
    assert "progress_starvation" in fired
    assert "forward_timeout_burst" in fired
    assert any("process down" in f.message for f in smoke_result.findings)


def test_monitor_experiment_perfetto_has_all_families(smoke_result):
    doc = json.loads(smoke_result.perfetto_json)
    cats = {e.get("cat") for e in doc["traceEvents"]}
    assert {"ult", "ult_block", "rpc", "fault"} <= cats
    instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
    assert instants  # >= 1 fault instant event under the fault plan
    assert all(e["name"].startswith("fault:") for e in instants)


def test_monitor_experiment_deterministic():
    a = run_monitor_experiment(seed=5, **SMOKE)
    b = run_monitor_experiment(seed=5, **SMOKE)
    assert a.report() == b.report()
    assert a.prometheus_text == b.prometheus_text
    assert a.series_csv == b.series_csv
    assert a.perfetto_json == b.perfetto_json
    assert a.findings_text == b.findings_text
    # Different seed, different telemetry.
    c = run_monitor_experiment(seed=6, **SMOKE)
    assert c.digests() != a.digests()


def test_monitor_experiment_writes_artifacts(tmp_path, smoke_result):
    paths = smoke_result.write_artifacts(tmp_path)
    names = sorted(os.path.basename(p) for p in paths)
    assert names == [
        "findings.txt", "metrics.prom", "series.csv", "timeline.perfetto.json",
    ]
    for path in paths:
        assert os.path.getsize(path) > 0
    json.loads((tmp_path / "timeline.perfetto.json").read_text())


def test_monitor_cli_smoke(tmp_path, capsys):
    out = tmp_path / "artifacts"
    assert main(["monitor", "--smoke", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "Monitored campaign" in text
    assert "anomalies" in text
    assert (out / "timeline.perfetto.json").exists()


def test_hepnos_experiment_monitoring_kwarg():
    result = run_hepnos_experiment(
        SMALL, events_per_client=64, monitoring=MonitorConfig(interval=100e-6)
    )
    assert result.monitor is not None
    assert result.monitor.sampler.ticks > 0
    # Every server and client attached.
    assert len(dict(result.monitor.iter_processes())) == 4 + 2


def test_overhead_study_monitoring_arm():
    study = run_overhead_study(
        config=SMALL,
        repetitions=1,
        events_per_client=64,
        monitoring=MonitorConfig(interval=100e-6),
    )
    rows = study.rows()
    assert len(rows) == 5
    assert rows[-1]["stage"] == "Full + monitor"
    # Acceptance criterion: monitoring adds <= 5% simulated-time overhead
    # (0% by construction -- the sampler is a pure observer).
    assert study.monitoring_sim_overhead() <= 0.05


def test_overhead_study_without_monitoring_unchanged():
    study = run_overhead_study(
        config=SMALL, repetitions=1, events_per_client=64
    )
    assert study.monitored is None
    assert len(study.rows()) == 4
    with pytest.raises(ValueError):
        study.monitoring_sim_overhead()
