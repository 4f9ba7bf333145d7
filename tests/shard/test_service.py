"""End-to-end tests of the sharded KV service: routing, migration,
failover, revival handoff, and the churn audit."""

import gc

import pytest

from repro.cluster import Cluster
from repro.faults import CrashFault, FaultPlan, RestartFault
from repro.margo import MargoError, RetryPolicy
from repro.shard import ShardedKVService, run_churn_audit
from repro.shard.placement import shard_of
from repro.symbiosys import Stage
from repro.symbiosys.monitor import MonitorConfig
from repro.validate import ValidationConfig


def _completed(manager, kind):
    """The migrations of ``kind`` that finished and moved their shard."""
    return [r for r in manager.records if r.ok and r.kind == kind]


def _retry() -> RetryPolicy:
    return RetryPolicy(
        max_attempts=4,
        timeout=0.5e-3,
        backoff=0.1e-3,
        backoff_factor=2.0,
        max_backoff=1e-3,
    )


def _deploy(cluster, n_servers=8, **kw):
    service = ShardedKVService.deploy(cluster, n_servers, **kw)
    client = cluster.process("cli", "nodeC")
    router = service.make_router(client)
    return service, client, router


def test_put_get_roundtrip_across_shards():
    with Cluster(seed=7, stage=Stage.FULL) as cluster:
        service, client, router = _deploy(cluster)
        done = {}

        def body():
            for i in range(40):
                ret = yield from router.put(f"key{i}", f"val{i}")
                assert ret == 0
            for i in range(40):
                value = yield from router.get(f"key{i}")
                assert value == f"val{i}"
            missing = yield from router.get("absent")
            assert missing is None
            done["at"] = cluster.sim.now

        client.client_ult(body(), name="load")
        assert cluster.run_until(lambda: "at" in done, limit=1.0)
        assert service.total_items() == 40
        spread = [
            a for a in service.servers if service.providers[a].total_items > 0
        ]
        assert len(spread) > 1  # data actually sharded, not piled up
        assert router.routing_failures == 0
    assert cluster.leaked_events == 0


def test_placement_routes_match_the_map():
    with Cluster(seed=3, stage=Stage.FULL) as cluster:
        service, client, router = _deploy(cluster, n_servers=6)
        # HEPnOS event keys ride the same placement.
        key = router.event_key("hepnos.dataset", 3, 14)
        assert router.map().owner_of_key(key) in service.servers
        assert router.shard_of(key) == shard_of(key, service.n_shards)


def test_rebalance_moves_data_and_conserves_bytes():
    with Cluster(seed=5, stage=Stage.FULL) as cluster:
        service, client, router = _deploy(cluster)
        done = {}

        def load():
            for i in range(30):
                yield from router.put(f"key{i}", "v" * 32)
            done["loaded"] = True

        client.client_ult(load(), name="load")
        assert cluster.run_until(lambda: "loaded" in done, limit=1.0)
        bytes_before = service.bytes_stored()

        # Pick a stored shard and a different live destination.
        manager = service.manager
        shard = next(
            s for s in range(service.n_shards)
            if (owner := manager.current_owner(s)) is not None
            and service.providers[owner].shards[s].bytes_stored > 0
        )
        src = manager.current_owner(shard)
        dst = next(a for a in service.servers if a != src)
        moved_keys = len(service.providers[src].shards[shard])
        assert manager.request_rebalance(shard, dst)
        cluster.run(until=cluster.sim.now + 2e-3)

        assert manager.current_owner(shard) == dst
        done.clear()
        (record,) = _completed(manager, "rebalance")
        assert record.shard == shard and record.src == src and record.dst == dst
        assert record.n_keys == moved_keys
        assert record.nbytes > 0
        assert service.bytes_stored() == bytes_before  # conserved

        # The router's map is unchanged (no membership change), so the
        # next request for that shard goes to the old owner and must be
        # redirected via the tombstone.
        def reread():
            value = yield from router.get(
                next(k for k in (f"key{i}" for i in range(30))
                     if shard_of(k, service.n_shards) == shard)
            )
            assert value == "v" * 32
            done["reread"] = True

        client.client_ult(reread(), name="reread")
        assert cluster.run_until(lambda: "reread" in done, limit=1.0)
        assert router.redirects_followed >= 1
        # Migration PVARs moved on both ends.
        src_pvars = service.providers[src].mi.hg.pvars
        dst_pvars = service.providers[dst].mi.hg.pvars
        assert src_pvars.raw_value("shard_migrations_out") == 1
        assert src_pvars.raw_value("shard_migration_bytes_out") == record.nbytes
        assert dst_pvars.raw_value("shard_migrations_in") == 1
        assert dst_pvars.raw_value("shard_migration_bytes_in") == record.nbytes


def test_node_death_triggers_view_change_and_failover():
    victim = "kv002"
    plan = FaultPlan(
        name="kill-one",
        process_faults=[CrashFault(addr=victim, at=1.0e-3)],
    )
    with Cluster(
        seed=11, stage=Stage.FULL, fault_plan=plan, retry=_retry()
    ) as cluster:
        service, client, router = _deploy(cluster)
        epoch0 = service.group.epoch
        expected, acked = {}, set()
        outcome = {"ok": 0, "failed": 0}
        done = {}

        def body():
            for i in range(30):
                key, value = f"pre{i}", f"v{i}"
                expected[key] = value
                try:
                    yield from router.put(key, value)
                    acked.add(key)
                    outcome["ok"] += 1
                except (MargoError, LookupError):
                    outcome["failed"] += 1
            # Sleep past the crash, detection, and propagation.
            yield from client.rt.sleep(
                max(1e-9, 1.6e-3 - cluster.sim.now)
            )
            for i in range(30):
                key, value = f"post{i}", f"w{i}"
                expected[key] = value
                try:
                    yield from router.put(key, value)
                    acked.add(key)
                    outcome["ok"] += 1
                except (MargoError, LookupError):
                    outcome["failed"] += 1
            done["at"] = cluster.sim.now

        client.client_ult(body(), name="churn-load")
        assert cluster.run_until(lambda: "at" in done, limit=1.0)
        cluster.run(until=cluster.sim.now + 2e-3)  # quiesce migrations

        # The death produced an epoch-numbered view change...
        assert service.group.epoch > epoch0
        assert victim not in service.group
        assert any(
            kind == "death" and addr == victim
            for (_, kind, addr, _) in service.membership.events
        )
        # ...failover migrations re-homed the victim's shards...
        failovers = _completed(service.manager, "failover")
        assert failovers
        assert {r.src for r in failovers} == {victim}
        for shard in range(service.n_shards):
            assert service.shard_owner(shard) is not None
        # ...every server replica converged to the authoritative view...
        for addr in service.servers:
            if addr == victim:
                continue
            assert service.providers[addr].replica.epoch == service.group.epoch
        # ...and nothing was silently dropped.
        report = run_churn_audit(service, expected, acked)
        assert report.ok, report.as_dict()
        assert report.issued == 60
        assert outcome["ok"] == len(acked)


def test_revived_node_rejoins_and_receives_handoffs():
    victim = "kv001"
    plan = FaultPlan(
        name="bounce",
        process_faults=[
            RestartFault(addr=victim, at=0.8e-3, downtime=0.6e-3, warmup=0.0)
        ],
    )
    with Cluster(
        seed=13, stage=Stage.FULL, fault_plan=plan, retry=_retry()
    ) as cluster:
        service, client, router = _deploy(cluster)
        expected, acked = {}, set()
        done = {}

        def body():
            for i in range(40):
                key, value = f"key{i}", f"v{i}" * 8
                expected[key] = value
                try:
                    yield from router.put(key, value)
                    acked.add(key)
                except (MargoError, LookupError):
                    pass
            yield from client.rt.sleep(max(1e-9, 2.5e-3 - cluster.sim.now))
            done["at"] = cluster.sim.now

        client.client_ult(body(), name="bounce-load")
        assert cluster.run_until(lambda: "at" in done, limit=1.0)
        cluster.run(until=cluster.sim.now + 2e-3)

        # The victim died and came back: two view changes.
        events = [(kind, addr) for (_, kind, addr, _) in service.membership.events]
        assert ("death", victim) in events
        assert ("revive", victim) in events
        assert victim in service.group
        # Its re-entry pulled shards back via live handoffs.
        handoffs = _completed(service.manager, "handoff")
        assert handoffs
        assert {r.dst for r in handoffs} == {victim}
        for record in handoffs:
            assert record.ok and record.end is not None
        # Data conservation modulo failover losses.
        report = run_churn_audit(service, expected, acked)
        assert report.ok, report.as_dict()


def test_router_fails_loudly_when_no_owner_exists():
    with Cluster(seed=21, stage=Stage.FULL) as cluster:
        service, client, router = _deploy(cluster, n_servers=2)
        # Fence a shard to a destination that never installs it.
        shard = 0
        owner = service.manager.current_owner(shard)
        service.providers[owner].fence_shard(shard, None)
        key = next(
            f"k{i}" for i in range(10_000)
            if shard_of(f"k{i}", service.n_shards) == shard
        )
        failed = {}

        def body():
            with pytest.raises(LookupError):
                yield from router.put(key, "v")
            failed["done"] = True

        client.client_ult(body(), name="lost")
        assert cluster.run_until(lambda: "done" in failed, limit=1.0)
        assert router.routing_failures == 1


def _tracked_objects_per_server(n_servers):
    """GC-tracked objects a monitored, strictly validated fleet deploy
    leaves behind, and those the monitor's first sample of it adds, per
    server (the ``fleet_n640`` benchmark shape)."""
    with Cluster(
        seed=0,
        stage=Stage.FULL,
        monitoring=MonitorConfig(interval=500e-6),
        validate=ValidationConfig(strict=True),
    ) as cluster:
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            ShardedKVService.deploy(cluster, n_servers, n_handler_es=1)
            deployed = len(gc.get_objects())
            cluster.monitor.sample(cluster.sim.now)
            sampled = len(gc.get_objects())
        finally:
            gc.enable()
    return (deployed - before) / n_servers, (sampled - deployed) / n_servers


def test_fleet_deploy_allocates_few_flat_objects_per_server():
    """Every long-lived tracked object is one more the cyclic GC rescans
    in each full collection, and a bigger fleet has both a bigger heap
    and more collections; so the per-server count stays small and does
    not grow with the fleet."""
    at_320, _ = _tracked_objects_per_server(320)
    at_2560, _ = _tracked_objects_per_server(2560)
    assert at_320 <= 150, f"{at_320:.1f} tracked objects per server"
    assert at_2560 <= 1.1 * at_320, f"{at_2560:.1f} vs {at_320:.1f} per server"


def test_first_monitor_sample_allocates_few_flat_objects_per_server():
    """The first sample builds each server's plan, row block and
    histogram, and nothing else: a sampled value lives only in its
    block's row, and a series has no object until something reads it.
    About 9 per server on CPython 3.11; the bound leaves room for other
    versions' allocation patterns."""
    _, at_320 = _tracked_objects_per_server(320)
    _, at_2560 = _tracked_objects_per_server(2560)
    assert at_320 <= 12, f"{at_320:.1f} tracked objects per server"
    assert at_2560 <= 1.1 * at_320, f"{at_2560:.1f} vs {at_320:.1f} per server"


def _tracked_objects_after_a_run(n_servers):
    """GC-tracked objects per server still alive once a monitored,
    strictly validated fleet has served its clients and the monitor has
    taken its last sample (the ``fleet_n640`` shape, fewer clients)."""
    gc.collect()
    before = len(gc.get_objects())
    with Cluster(
        seed=0,
        stage=Stage.FULL,
        monitoring=MonitorConfig(interval=500e-6),
        validate=ValidationConfig(strict=True),
    ) as cluster:
        service = ShardedKVService.deploy(cluster, n_servers, n_handler_es=1)

        def body(router, c):
            for i in range(8):
                yield from router.put(f"c{c}k{i}", "v")
                assert (yield from router.get(f"c{c}k{i}")) == "v"

        held = []
        for node in range(4):
            mi = cluster.process(f"cli{node}", f"cnode{node}")
            router = service.make_router(mi)
            held += [
                mi.client_ult(body(router, 4 * node + u), f"u{u}") for u in range(4)
            ]
        assert cluster.run_until(
            lambda: all(u.terminated for u in held), limit=1.0
        )
        cluster.monitor.stop()
        gc.collect()
        alive = len(gc.get_objects()) - before
    return alive / n_servers


def test_fleet_run_leaves_flat_objects_per_server():
    """What a whole run leaves alive per server -- deploy, scheduling
    records, queued timeouts and every monitor sample -- does not grow
    with the fleet."""
    at_320 = _tracked_objects_after_a_run(320)
    at_2560 = _tracked_objects_after_a_run(2560)
    assert at_2560 <= 1.1 * at_320, f"{at_2560:.1f} vs {at_320:.1f} per server"


def test_finished_ults_do_not_outlive_a_validated_fleet_run():
    """The scheduler observers keep no per-ULT state: once the clients of
    a monitored, strictly validated fleet are done, the only finished
    ULTs still alive are the ones the caller holds."""
    from repro.argobots import ULT

    with Cluster(
        seed=0,
        stage=Stage.FULL,
        monitoring=MonitorConfig(interval=500e-6),
        validate=ValidationConfig(strict=True),
    ) as cluster:
        service = ShardedKVService.deploy(cluster, 16, n_handler_es=1)
        mi = cluster.process("cli", "cnode")
        router = service.make_router(mi)

        def body(c):
            for i in range(8):
                yield from router.put(f"c{c}k{i}", "v")
                assert (yield from router.get(f"c{c}k{i}")) == "v"

        held = [mi.client_ult(body(c), f"u{c}") for c in range(4)]
        assert cluster.run_until(
            lambda: all(u.terminated for u in held), limit=1.0
        )
        # Counted before teardown, which ends every process's progress
        # ULT (each process keeps its own).
        gc.collect()
        finished = sum(
            1 for o in gc.get_objects() if isinstance(o, ULT) and o.terminated
        )
    assert len(cluster.monitor.sched) > 100  # the observers saw the run
    assert finished <= len(held), f"{finished} finished ULTs alive"


def test_fleet_deploy_takes_pvar_tables_not_single_definitions(monkeypatch):
    """A server's registry takes Mercury's table and the shard server's
    table, each in one step: a deploy makes two table definitions per
    server.  A run of the fleet's clients never draws backoff jitter,
    so no process gets an RNG stream."""
    from repro.mercury import PvarRegistry

    calls = 0
    real = PvarRegistry.define_table

    def counted(self, *args):
        nonlocal calls
        calls += 1
        return real(self, *args)

    monkeypatch.setattr(PvarRegistry, "define_table", counted)
    with Cluster(
        seed=0,
        stage=Stage.FULL,
        monitoring=MonitorConfig(interval=500e-6),
        validate=ValidationConfig(strict=True),
    ) as cluster:
        calls = 0
        service = ShardedKVService.deploy(cluster, 16, n_handler_es=1)
        assert calls == 2 * 16
        mi = cluster.process("cli", "cnode")
        router = service.make_router(mi)

        def body(c):
            for i in range(4):
                yield from router.put(f"c{c}k{i}", "v")
                assert (yield from router.get(f"c{c}k{i}")) == "v"

        held = [mi.client_ult(body(c), f"u{c}") for c in range(4)]
        assert cluster.run_until(
            lambda: all(u.terminated for u in held), limit=1.0
        )
    assert not any(n.startswith("margo.") for n in cluster.rng._streams)


def test_fleet_without_faults_or_jitter_creates_no_rng_stream():
    """Nothing in a fault-free fleet draws randomness: the fabric is
    deterministic and a process makes its ``margo.*`` stream only at a
    jittered backoff."""
    with Cluster(seed=0) as cluster:
        service = ShardedKVService.deploy(cluster, 8)
        mi = cluster.process("cli", "cnode")
        router = service.make_router(mi)
        got = []

        def body():
            yield from router.put("k", "v")
            got.append((yield from router.get("k")))

        mi.client_ult(body())
        assert cluster.run_until(lambda: got, limit=1.0)
    assert got == ["v"]
    assert cluster.rng._streams == {}
