"""Tests for the online telemetry monitor: sampling, scheduler slices,
anomaly detectors, and the determinism guarantees the layer makes."""

from types import SimpleNamespace

import pytest

from repro.cluster import Cluster
from repro.symbiosys.export import series_to_csv, to_prometheus
from repro.symbiosys.monitor import (
    AnomalyDetector,
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


def run_monitored_echo(seed=0, n_requests=20, monitoring=None, detectors=()):
    """One server + one client under a monitored Cluster, with
    ``detectors`` appended to the built-in ones; returns the closed
    cluster (telemetry intact after shutdown)."""
    monitoring = monitoring or MonitorConfig(interval=25e-6)
    with Cluster(seed=seed, monitoring=monitoring) as cluster:
        cluster.monitor.detectors.extend(detectors)
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
    # A zero watermark or burst count, or a non-positive window or
    # threshold, would make its detector fire on every sample.
    for field, value in (
        ("queue_watermark", 0),
        ("queue_watermark", -1),
        ("timeout_burst_count", 0),
        ("timeout_burst_window", 0.0),
        ("timeout_burst_window", -1e-3),
        ("starvation_threshold", 0.0),
        ("starvation_threshold", -1e-3),
    ):
        with pytest.raises(ValueError, match=field):
            MonitorConfig(**{field: value})


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
        return series, to_prometheus(monitor), series_to_csv(monitor.store)

    assert snapshot() == snapshot()


def test_custom_detector_factory_runs():
    hits = []

    class CountingDetector(AnomalyDetector):
        name = "counting"

        def on_sample(self, t, monitor):
            hits.append(t)
            return []

    cluster = run_monitored_echo(detectors=[CountingDetector()])
    assert len(hits) == cluster.monitor.sampler.ticks + 1  # +1 final sample


# ------------------------------------------------------------ detectors
#
# Detector units run against stub processes so each trigger/clear edge
# is exercised exactly, without hunting for a workload that produces it.


def _stub_monitor(processes):
    return SimpleNamespace(iter_processes=lambda: list(processes.items()))


def _stub_process(
    *, cq_depth=0, crashed=False, pool_depth=0, timeouts=0, last_progress=0.0
):
    return SimpleNamespace(
        endpoint=SimpleNamespace(cq_depth=cq_depth),
        crashed=crashed,
        handler_pool=[None] * pool_depth,
        hg=SimpleNamespace(
            pvars=SimpleNamespace(raw_value=lambda name: timeouts),
            last_progress=last_progress,
        ),
    )


def test_starvation_detector_edges():
    det = ProgressStarvationDetector(MonitorConfig(starvation_threshold=1e-3))
    mi = _stub_process(cq_depth=2)
    mon = _stub_monitor({"p": mi})
    assert det.on_sample(0.5e-3, mon) == []  # below threshold
    [f] = det.on_sample(2e-3, mon)  # starved
    assert f.detector == "progress_starvation" and "queued completions" in f.message
    assert det.on_sample(3e-3, mon) == []  # edge-triggered: no repeat
    mi.hg.last_progress = 3.1e-3  # progress resumed
    [f] = det.on_sample(3.2e-3, mon)
    assert f.message == "progress resumed"


def test_starvation_detector_fires_on_crash():
    det = ProgressStarvationDetector(MonitorConfig())
    mi = _stub_process(crashed=True)
    mon = _stub_monitor({"p": mi})
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
    # The emptied window is dropped; only the last total stays.
    assert det._recent == {} and det._last_total == {"p": 3}


def test_timeout_burst_detector_keeps_nothing_for_healthy_processes():
    det = ForwardTimeoutBurstDetector(MonitorConfig())
    mon = _stub_monitor({"a": _stub_process(), "b": _stub_process()})
    for i in range(5):
        assert det.on_sample(i * 1e-4, mon) == []
    assert det._recent == {} and det._last_total == {}


def test_sched_recorder_bounded():
    rec = SchedRecorder(capacity=1)
    es = SimpleNamespace(runtime=SimpleNamespace(name="p"), name="es0")
    from repro.argobots.ult import UltState

    ult = SimpleNamespace(name="u", state=UltState.TERMINATED, blocked_at=None)
    rec.on_slice(es, ult, 0.0, 1e-6)
    rec.on_slice(es, ult, 2e-6, 3e-6)
    assert len(rec) == 1 and rec.dropped == 1


def test_sched_recorder_marks_where_its_record_stops():
    """Past the cap the recorder keeps the earliest start of any dropped
    slice: a block slice reported after the first drop can begin before
    it, and the record is incomplete from there on."""
    from repro.argobots.ult import UltState

    rec = SchedRecorder(capacity=2)
    es = SimpleNamespace(runtime=SimpleNamespace(name="p"), name="es0")
    done = SimpleNamespace(name="u", state=UltState.TERMINATED, blocked_at=None)
    rec.on_slice(es, done, 0.0, 1e-6)
    rec.on_slice(es, done, 1e-6, 2e-6)
    assert rec.dropped == 0 and rec.dropped_from is None
    rec.on_slice(es, done, 5e-6, 6e-6)
    assert rec.dropped == 1 and rec.dropped_from == 5e-6
    woken = SimpleNamespace(name="w", state=UltState.TERMINATED, blocked_at=3e-6)
    rec.on_slice(es, woken, 7e-6, 8e-6)  # its block slice and its run slice
    assert rec.dropped == 3 and rec.dropped_from == 3e-6
    rec.on_slice(es, done, 9e-6, 10e-6)
    assert rec.dropped_from == 3e-6
    assert [(s.start, s.end) for s in rec.slices] == [(0.0, 1e-6), (1e-6, 2e-6)]


def test_sched_recorder_block_slice_spans_block_to_next_dispatch():
    """A ULT that blocks, wakes and terminates yields run, block, run:
    the block slice runs from the end of the blocking slice to the pop
    that resumes the ULT, and the ES clears the block time after it."""
    from repro.argobots import AbtRuntime, Compute, WaitEventual
    from repro.sim import Simulator

    sim = Simulator()
    rt = AbtRuntime(sim, "p", ctx_switch_cost=0.25)
    pool = rt.create_pool()
    rt.create_xstream(pool, "es0")
    rec = SchedRecorder()
    rt.add_sched_observer(rec)
    ev = rt.eventual()

    def body():
        yield Compute(1.0)
        yield WaitEventual(ev)
        yield Compute(2.0)

    ult = rt.spawn(body(), pool, name="u")
    sim.call_at(10.0, ev.signal, None)
    sim.run()
    blocking, block, last = rec.slices
    assert (blocking.kind, blocking.reason) == ("run", "block")
    assert (blocking.start, blocking.end) == (0.0, 1.25)
    assert (block.kind, block.start, block.end) == ("block", 1.25, 10.0)
    assert (last.kind, last.reason, last.start) == ("run", "end", 10.0)
    assert ult.terminated and ult.blocked_at is None


# ------------------------------------------------------------ sampling plans


def _idle_cluster(n):
    """A monitored cluster of ``n`` idle processes (never run)."""
    cluster = Cluster(seed=0, monitoring=MonitorConfig())
    for i in range(n):
        cluster.process(f"p{i:03d}", f"n{i:03d}")
    return cluster


def test_first_sample_allocates_few_objects_per_process():
    """The first sample builds every process's plan and row block (about
    10 tracked objects on CPython 3.11, however many series the block
    holds); at fleet scale its long-lived objects are what the cyclic GC
    keeps rescanning, so they stay few per process."""
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
    assert added <= 12 * n, f"{added / n:.0f} tracked objects per process"
    cluster.shutdown()


def test_a_pvar_defined_after_the_first_sample_raises():
    """The first sample fixes a process's PVAR schema: one plan per
    process, shared row templates per schema, and a PVAR defined later
    makes the next sample raise, naming the process."""
    from repro.mercury.pvar import PvarBinding, PvarClass, PvarDef, PvarTable

    cluster = _idle_cluster(3)
    monitor = cluster.monitor
    grown = cluster.processes["p000"]
    # A shard-style PVAR family, defined before the first sample.
    grown.hg.pvars.define_table(PvarTable((
        PvarDef("shard_ops_total", PvarClass.COUNTER, PvarBinding.NO_OBJECT,
                "KV operations served by this shard server"),
    )))
    grown.hg.pvars.add("shard_ops_total", 5)
    monitor.sample(cluster.sim.now)
    monitor.sample(cluster.sim.now)
    assert monitor.plan_rebuilds == 3  # one build per process
    assert monitor.pvars.raw_value("monitor_plan_rebuilds") == 3

    # The PVAR's series carries the public API's labels and is
    # exported as a counter.
    # Views are built on demand: two reads are equal, not identical.
    [series] = [s for s in monitor.store.all_series()
                if s.name == "pvar_shard_ops_total"]
    again = monitor.store.series("pvar_shard_ops_total", {"process": "p000"})
    assert (again.name, again.labels, again.samples()) == (
        series.name, series.labels, series.samples()
    )
    assert series.labels == (("process", "p000"),)
    assert [v for _, v in series.samples()] == [5.0, 5.0]
    lines = to_prometheus(monitor).splitlines()
    assert "# TYPE pvar_shard_ops_total counter" in lines
    assert 'pvar_shard_ops_total{process="p000"} 5' in lines

    # Different schemas never share rows; the same schema does.
    rows = {a: monitor._plans[a].rows for a in ("p000", "p001", "p002")}
    assert rows["p000"] is not rows["p002"]
    assert rows["p001"] is rows["p002"]
    assert "pvar_shard_ops_total" in {r[1] for r in rows["p000"]}
    assert "pvar_shard_ops_total" not in {r[1] for r in rows["p002"]}

    cluster.processes["p001"].hg.pvars.define_table(PvarTable((
        PvarDef("late_total", PvarClass.COUNTER, PvarBinding.NO_OBJECT, ""),
    )))
    with pytest.raises(ValueError, match="'p001'.*before the run"):
        monitor.sample(cluster.sim.now)
    assert monitor.plan_rebuilds == 3
    monitor.sampler.stop()  # the shutdown's last sample would raise too
    cluster.shutdown()


def test_a_decreasing_counter_pvar_raises_from_sample():
    """A COUNTER-class PVAR is a cumulative total: a sample below the
    previous one is a broken PVAR, not a value to record."""
    from repro.mercury.pvar import PvarBinding, PvarClass, PvarDef, PvarTable

    cluster = _idle_cluster(1)
    monitor = cluster.monitor
    pvars = cluster.processes["p000"].hg.pvars
    pvars.define_table(PvarTable((
        PvarDef("ops_total", PvarClass.COUNTER, PvarBinding.NO_OBJECT, ""),
    )))
    pvars.add("ops_total", 5)
    monitor.sample(cluster.sim.now)
    monitor.sample(cluster.sim.now)  # unchanged is fine
    pvars.set("ops_total", 2)
    with pytest.raises(ValueError, match="pvar_ops_total"):
        monitor.sample(cluster.sim.now)
    series = monitor.store.series("pvar_ops_total", {"process": "p000"})
    assert [v for _, v in series.samples()] == [5.0, 5.0]
    pvars.set("ops_total", 5)  # the shutdown takes a last sample
    cluster.shutdown()


def test_progress_iterations_match_an_independent_observer():
    """``hg_progress_iterations`` is Mercury's own progress record; it
    counts what any other progress observer sees, and the starvation
    detector's last-progress time is the observer's last call."""
    seen = {}

    with Cluster(seed=0, monitoring=MonitorConfig(interval=25e-6)) as cluster:
        server = cluster.process("svr", "nA", n_handler_es=1)
        client = cluster.process("cli", "nB")
        for mi in (server, client):
            calls = seen[mi.addr] = [0, None]

            def observer(t, n, calls=calls):
                calls[0] += 1
                calls[1] = t

            mi.hg.add_progress_observer(observer)
        server.register("echo", echo_handler)
        client.register("echo")
        done = []

        def body(i):
            done.append((yield from client.forward("svr", "echo", {"req": i})))

        for i in range(10):
            client.client_ult(body(i), name=f"req{i}")
        assert cluster.run_until(lambda: len(done) == 10, limit=1.0)
        for addr, (count, last) in seen.items():
            hg = cluster.processes[addr].hg
            assert count > 0
            assert hg.progress_iterations == count
            assert hg.last_progress == last
        lines = to_prometheus(cluster.monitor).splitlines()
        for addr, (count, _) in seen.items():
            assert f'hg_progress_iterations{{process="{addr}"}} {count}' in lines


def test_idle_processes_export_no_progress_iterations():
    cluster = _idle_cluster(2)
    cluster.monitor.sample(cluster.sim.now)
    text = to_prometheus(cluster.monitor)
    assert "pvar_" in text
    assert "hg_progress_iterations" not in text
    cluster.shutdown()
