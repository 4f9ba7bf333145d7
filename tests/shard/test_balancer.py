"""Monitor-triggered hot-spot rebalancing."""

from repro.cluster import Cluster
from repro.shard import ShardHotspotDetector, ShardedKVService
from repro.symbiosys import Stage
from repro.symbiosys.monitor import MonitorConfig


def _completed(manager, kind):
    """The migrations of ``kind`` that finished and moved their shard."""
    return [r for r in manager.records if r.ok and r.kind == kind]


def test_hot_shard_is_detected_and_rebalanced():
    with Cluster(
        seed=9,
        stage=Stage.FULL,
        monitoring=MonitorConfig(interval=50e-6),
    ) as cluster:
        service = ShardedKVService.deploy(cluster, 8)
        detector = ShardHotspotDetector(
            cluster.monitor.config,
            manager=service.manager,
            providers=service.providers,
            min_window_ops=4,
            hot_fraction=0.5,
            cooldown=10.0,
        )
        cluster.monitor.detectors.append(detector)

        manager = service.manager
        hot_key = next(
            k
            for k in (f"hot{i}" for i in range(1000))
            if len(
                service.providers[manager.map.owner_of_key(k)].shards
            ) >= 2
        )
        hot_shard = manager.map.shard_of(hot_key)
        hot_owner = manager.map.owner_of_shard(hot_shard)

        pending = {"n": 4}
        for c in range(4):
            mi = cluster.process(f"cli{c}", f"nodeC{c}")
            router = service.make_router(mi)

            def body(router=router):
                yield from router.put(hot_key, "v")
                for _ in range(60):
                    value = yield from router.get(hot_key)
                    assert value == "v"
                pending["n"] -= 1

            mi.client_ult(body(), name=f"hammer{c}")
        assert cluster.run_until(lambda: pending["n"] == 0, limit=1.0)
        cluster.run(until=cluster.sim.now + 2e-3)

        # The detector saw the hot shard and requested a rebalance...
        assert detector.rebalances
        t, shard, src, dst = detector.rebalances[0]
        assert (shard, src) == (hot_shard, hot_owner)
        # ...the migration completed and ownership moved...
        completed = _completed(manager, "rebalance")
        assert completed and completed[0].shard == hot_shard
        assert manager.current_owner(hot_shard) == dst != hot_owner
        # ...with an edge-triggered finding and per-shard telemetry.
        hot_findings = [
            f for f in cluster.monitor.findings if f.detector == "shard_hotspot"
        ]
        assert hot_findings and f"shard {hot_shard}" in hot_findings[0].message
        series = cluster.monitor.store.series(
            "shard_ops", {"process": hot_owner, "shard": f"{hot_shard:04d}"}
        )
        assert series.samples()  # recorded during the run


def test_balancer_series_is_csv_only_and_stored_as_a_gauge(tmp_path):
    """``shard_ops`` belongs to no metric family: the time-series CSV
    and the performance store carry it, the Prometheus snapshot does
    not, and the store files it as a help-less gauge."""
    import sqlite3

    from repro.symbiosys.export import series_to_csv, to_prometheus

    db = tmp_path / "perf.db"
    with Cluster(
        seed=0,
        stage=Stage.FULL,
        monitoring=MonitorConfig(interval=50e-6),
        store=str(db),
    ) as cluster:
        service = ShardedKVService.deploy(cluster, 4)
        cluster.monitor.detectors.append(
            ShardHotspotDetector(
                cluster.monitor.config,
                manager=service.manager,
                providers=service.providers,
            )
        )
        mi = cluster.process("cli", "nodeC")
        router = service.make_router(mi)
        done = []

        def body():
            for i in range(8):
                yield from router.put(f"k{i}", "v")
            done.append(True)

        mi.client_ult(body(), name="writer")
        assert cluster.run_until(lambda: done, limit=1.0)
    monitor = cluster.monitor
    assert "\nshard_ops," in series_to_csv(monitor.store)
    assert not any(
        line.startswith(("shard_ops", "# TYPE shard_ops "))
        for line in to_prometheus(monitor).splitlines()
    )
    conn = sqlite3.connect(db)
    rows = conn.execute(
        "SELECT DISTINCT kind, help FROM metrics WHERE name = 'shard_ops'"
    ).fetchall()
    conn.close()
    assert rows == [("gauge", "")]
