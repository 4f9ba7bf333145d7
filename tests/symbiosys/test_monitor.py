"""Tests for the online telemetry monitor: sampling, scheduler slices,
anomaly detectors, and the determinism guarantees the layer makes."""

from types import SimpleNamespace

import pytest

from repro.cluster import Cluster
from repro.symbiosys.export import series_to_csv, to_prometheus
from repro.symbiosys.monitor import (
    AnomalyDetector,
    Finding,
    ForwardTimeoutBurstDetector,
    Monitor,
    MonitorConfig,
    ProgressStarvationDetector,
    QueueDepthWatermarkDetector,
    SchedRecorder,
)


def echo_handler(mi, handle):
    inp = yield from mi.get_input(handle)
    yield from mi.respond(handle, {"echo": inp})


def run_monitored_echo(seed=0, n_requests=20, monitoring=None):
    """One server + one client under a monitored Cluster; returns the
    closed cluster (telemetry intact after shutdown)."""
    monitoring = monitoring or MonitorConfig(interval=25e-6)
    with Cluster(seed=seed, monitoring=monitoring) as cluster:
        server = cluster.process("svr", "nA", n_handler_es=1)
        client = cluster.process("cli", "nB")
        server.register("echo", echo_handler)
        client.register("echo")
        done = []

        def body(i):
            out = yield from client.forward("svr", "echo", {"req": i})
            done.append(out)

        for i in range(n_requests):
            client.client_ult(body(i), name=f"req{i}")
        assert cluster.run_until(lambda: len(done) == n_requests, limit=1.0)
    assert len(done) == n_requests
    return cluster


# ------------------------------------------------------------ config


def test_monitor_config_validates():
    with pytest.raises(ValueError):
        MonitorConfig(interval=0.0)
    with pytest.raises(ValueError):
        MonitorConfig(ring_capacity=0)
    with pytest.raises(ValueError):
        MonitorConfig(detectors=("starvation", "nonsense"))


def test_monitor_config_replaceable():
    cfg = MonitorConfig()
    tweaked = cfg.replace(interval=1e-3)
    assert tweaked.interval == 1e-3
    assert cfg.interval == 100e-6  # original untouched


# ------------------------------------------------------------ sampling


def test_monitor_samples_pvars_tasking_and_fabric():
    cluster = run_monitored_echo()
    monitor = cluster.monitor
    assert monitor.sampler.ticks > 0
    names = {s.name for s in monitor.store.all_series()}
    # PVARs, tasking gauges, and fabric gauges all present.
    assert "pvar_num_rpcs_invoked" in names
    assert "pvar_num_forward_timeouts" in names
    assert "abt_handler_pool_depth" in names
    assert "abt_num_blocked" in names
    assert "abt_busy_fraction" in names
    assert "fabric_inflight_bytes" in names
    assert "fabric_total_bytes" in names
    # Both processes labelled.
    procs = {
        dict(s.labels).get("process")
        for s in monitor.store.all_series()
        if s.labels
    }
    assert {"svr", "cli"} <= procs
    # The fabric actually moved bytes.
    total = monitor.store.series("fabric_total_bytes", None).latest()
    assert total is not None and total[1] > 0


def test_monitor_records_scheduler_slices():
    cluster = run_monitored_echo()
    sched = cluster.monitor.sched
    assert len(sched) > 0
    kinds = {s.kind for s in sched.slices}
    assert kinds == {"run", "block"}
    names = {s.ult for s in sched.slices}
    assert "svr.__margo_progress" in names
    assert any(n.startswith("svr.h:echo") for n in names)
    for s in sched.slices:
        assert s.end >= s.start
        if s.kind == "run":
            assert s.reason in ("end", "block", "yield", "preempt")


def test_monitor_clean_teardown_and_double_attach():
    cluster = run_monitored_echo()
    assert cluster.leaked_events == 0
    with pytest.raises(ValueError):
        cluster.monitor.attach(cluster.processes["svr"])


def test_monitoring_does_not_change_simulated_time():
    """The sampler is a pure observer: the monitored makespan equals the
    unmonitored one (the <=5% overhead criterion, met at 0%)."""

    def makespan(monitoring):
        with Cluster(seed=7, monitoring=monitoring) as cluster:
            server = cluster.process("svr", "nA", n_handler_es=1)
            client = cluster.process("cli", "nB")
            server.register("echo", echo_handler)
            client.register("echo")
            done = []

            def body(i):
                yield from client.forward("svr", "echo", {"req": i})
                done.append(cluster.sim.now)

            for i in range(10):
                client.client_ult(body(i), name=f"req{i}")
            assert cluster.run_until(lambda: len(done) == 10, limit=1.0)
            return max(done)

    assert makespan(None) == makespan(MonitorConfig(interval=25e-6))


def test_monitored_runs_are_byte_identical():
    """Same seed -> identical time-series and exporter text."""

    def snapshot():
        cluster = run_monitored_echo(seed=3)
        monitor = cluster.monitor
        series = [
            (s.name, s.labels, s.samples()) for s in monitor.store.all_series()
        ]
        return series, to_prometheus(monitor.registry), series_to_csv(monitor.store)

    assert snapshot() == snapshot()


def test_custom_detector_factory_runs():
    hits = []

    class CountingDetector(AnomalyDetector):
        name = "counting"

        def __init__(self, config):
            pass

        def on_sample(self, t, monitor):
            hits.append(t)
            return []

    cfg = MonitorConfig(
        interval=25e-6, detector_factories=(lambda c: CountingDetector(c),)
    )
    cluster = run_monitored_echo(monitoring=cfg)
    assert len(hits) == cluster.monitor.sampler.ticks + 1  # +1 final sample


# ------------------------------------------------------------ detectors
#
# Detector units run against stub processes so each trigger/clear edge
# is exercised exactly, without hunting for a workload that produces it.


def _stub_monitor(processes, last_progress=None):
    return SimpleNamespace(
        iter_processes=lambda: list(processes.items()),
        last_progress=last_progress or {},
    )


def _stub_process(*, cq_depth=0, crashed=False, pool_depth=0, timeouts=0):
    return SimpleNamespace(
        endpoint=SimpleNamespace(cq_depth=cq_depth),
        crashed=crashed,
        handler_pool=[None] * pool_depth,
        hg=SimpleNamespace(
            pvars=SimpleNamespace(raw_value=lambda name: timeouts)
        ),
    )


def test_starvation_detector_edges():
    det = ProgressStarvationDetector(MonitorConfig(starvation_threshold=1e-3))
    mi = _stub_process(cq_depth=2)
    mon = _stub_monitor({"p": mi}, last_progress={"p": 0.0})
    assert det.on_sample(0.5e-3, mon) == []  # below threshold
    [f] = det.on_sample(2e-3, mon)  # starved
    assert f.detector == "progress_starvation" and "queued completions" in f.message
    assert det.on_sample(3e-3, mon) == []  # edge-triggered: no repeat
    mon.last_progress["p"] = 3.1e-3  # progress resumed
    [f] = det.on_sample(3.2e-3, mon)
    assert f.message == "progress resumed"


def test_starvation_detector_fires_on_crash():
    det = ProgressStarvationDetector(MonitorConfig())
    mi = _stub_process(crashed=True)
    mon = _stub_monitor({"p": mi}, last_progress={"p": 0.0})
    [f] = det.on_sample(1e-6, mon)
    assert "process down" in f.message


def test_queue_depth_detector_hysteresis():
    det = QueueDepthWatermarkDetector(MonitorConfig(queue_watermark=4))
    mi = _stub_process(pool_depth=4)
    mon = _stub_monitor({"p": mi})
    [f] = det.on_sample(0.0, mon)
    assert f.detector == "handler_queue_depth" and f.value == 4
    mi.handler_pool = [None] * 3  # above half-watermark: still armed
    assert det.on_sample(1e-6, mon) == []
    mi.handler_pool = [None] * 2  # at half-watermark: clears
    [f] = det.on_sample(2e-6, mon)
    assert "drained" in f.message


def test_timeout_burst_detector_window():
    det = ForwardTimeoutBurstDetector(
        MonitorConfig(timeout_burst_count=3, timeout_burst_window=1e-3)
    )
    mi = _stub_process()
    mon = _stub_monitor({"p": mi})
    timeline = [(0.0, 1), (0.2e-3, 2), (0.4e-3, 3), (2e-3, 3)]
    fired = []
    for t, total in timeline:
        mi.hg.pvars = SimpleNamespace(raw_value=lambda name, v=total: v)
        fired.extend(det.on_sample(t, mon))
    # Burst of 3 inside 1ms fires once; the quiet window then clears.
    assert [f.message.split()[0] for f in fired] == ["3", "timeout"]
    assert fired[0].detector == "forward_timeout_burst"


def test_sched_recorder_bounded():
    rec = SchedRecorder(capacity=1)
    es = SimpleNamespace(runtime=SimpleNamespace(name="p"), name="es0")
    from repro.argobots.ult import UltState

    ult = SimpleNamespace(name="u", state=UltState.TERMINATED)
    rec.on_slice(es, ult, 0.0, 1e-6)
    rec.on_slice(es, ult, 2e-6, 3e-6)
    assert len(rec) == 1 and rec.dropped == 1


def test_finding_as_row():
    f = Finding(1.5e-3, "d", "p", "msg", value=2.0)
    row = f.as_row()
    assert row["time"] == "1.500000ms" and row["finding"] == "msg"


# ------------------------------------------------------------ sampling plans


def _idle_cluster(n):
    """A monitored cluster of ``n`` idle processes (never run)."""
    cluster = Cluster(seed=0, monitoring=MonitorConfig())
    for i in range(n):
        cluster.process(f"p{i:03d}", f"n{i:03d}")
    return cluster


def test_first_sample_allocates_few_objects_per_process():
    """The first sample builds every process's plan, metrics and series;
    at fleet scale its long-lived objects are what the cyclic GC keeps
    rescanning, so they stay few per process."""
    import gc

    n = 64
    cluster = _idle_cluster(n)
    monitor = cluster.monitor
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        monitor.sample(cluster.sim.now)
        added = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert len(monitor.store) >= 15 * n  # the sample did build the series
    assert added <= 160 * n, f"{added / n:.0f} tracked objects per process"
    cluster.shutdown()


def test_stale_plans_are_rebuilt_and_counted():
    from repro.mercury.pvar import PvarBinding, PvarClass, PvarDef

    cluster = _idle_cluster(3)
    monitor = cluster.monitor
    grown = cluster.processes["p000"]
    monitor.sample(cluster.sim.now)
    assert monitor.plan_rebuilds == 3
    assert monitor._plans["p000"].rows is monitor._plans["p002"].rows

    # A shard-style PVAR family appended after the first sample.
    grown.hg.pvars.define(
        PvarDef("shard_ops_total", PvarClass.COUNTER, PvarBinding.NO_OBJECT,
                "KV operations served by this shard server")
    )
    grown.hg.pvars.add("shard_ops_total", 5)
    monitor.sample(cluster.sim.now)
    assert monitor.plan_rebuilds == 4
    assert monitor.pvars.raw_value("monitor_plan_rebuilds") == 4
    monitor.sample(cluster.sim.now)
    assert monitor.plan_rebuilds == 4  # fresh plans stay

    # The new PVAR's metric and series carry the public API's labels.
    counter = monitor.registry.counter(
        "pvar_shard_ops_total", labels={"process": "p000"}
    )
    assert counter.value == 5
    [series] = [s for s in monitor.store.all_series()
                if s.name == "pvar_shard_ops_total"]
    assert series is monitor.store.series(
        "pvar_shard_ops_total", {"process": "p000"}
    )
    assert series.labels == counter.labels == (("process", "p000"),)
    assert [v for _, v in series.samples()] == [5.0, 5.0]

    # Different schemas never share rows; the unchanged one keeps its own.
    rows = {a: monitor._plans[a].rows for a in ("p000", "p001", "p002")}
    assert rows["p000"] is not rows["p002"]
    assert rows["p001"] is rows["p002"]
    assert "pvar_shard_ops_total" in {r[1] for r in rows["p000"]}
    assert "pvar_shard_ops_total" not in {r[1] for r in rows["p002"]}
    cluster.shutdown()
