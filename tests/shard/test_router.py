"""Routers made by ``ShardedKVService.make_router`` start from the
deploy-time placement map and rebuild their own ring only once their
view replica's epoch moves."""

from repro.cluster import Cluster
from repro.faults import CrashFault, FaultPlan
from repro.shard import ShardedKVService
from repro.shard.placement import ShardMap
from repro.shard.router import ShardRouter
from repro.symbiosys import Stage


def _self_built_router(service, mi):
    # A seed map behind the replica epoch: the first map() builds a ring.
    stale = ShardMap(version=-1, n_shards=service.n_shards, owners=())
    return ShardRouter(
        mi,
        replica=service.group.replica(),
        shard_map=stale,
        n_shards=service.n_shards,
        placement_seed=service.cluster.seed,
        vnodes=service.manager.ring.vnodes,
    )


def test_seeded_router_routes_like_one_that_builds_its_own_ring():
    with Cluster(seed=4, stage=Stage.FULL) as cluster:
        service = ShardedKVService.deploy(cluster, 12)
        seeded = service.make_router(cluster.process("cli0", "nodeC0"))
        built = _self_built_router(service, cluster.process("cli1", "nodeC1"))
        assert seeded.map() is service.manager.map
        assert built.map() is not service.manager.map
        for shard in range(service.n_shards):
            assert (
                seeded.map().owner_of_shard(shard)
                == built.map().owner_of_shard(shard)
            )


def test_router_rebuilds_its_map_when_the_epoch_moves():
    victim = "kv003"
    plan = FaultPlan(
        name="kill-one", process_faults=[CrashFault(addr=victim, at=0.5e-3)]
    )
    with Cluster(seed=9, stage=Stage.FULL, fault_plan=plan) as cluster:
        service = ShardedKVService.deploy(cluster, 8)
        router = service.make_router(cluster.process("cli", "nodeC"))
        seed_map = router.map()
        epoch0 = router.replica.epoch
        assert seed_map.version == epoch0

        cluster.run(until=1.5e-3)  # crash, detection, view delivery

        assert router.replica.epoch > epoch0
        assert victim not in router.replica
        rebuilt = router.map()
        assert rebuilt is not seed_map
        assert rebuilt.version == router.replica.epoch
        assert victim not in rebuilt.owners
        assert rebuilt.owners == service.manager.map.owners
