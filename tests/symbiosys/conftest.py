"""Instrumented Mochi worlds for SYMBIOSYS integration tests."""

from types import SimpleNamespace

import repro.argobots as abt
from repro.margo import MargoConfig, MargoInstance
from repro.net import Fabric, FabricConfig
from repro.sim import LocalClock, Simulator
from repro.symbiosys import ProfileStore, Stage, SymbiosysCollector


def make_instrumented_world(
    stage=Stage.FULL,
    *,
    clocks=None,
    server_config=None,
    client_config=None,
    hg_config=None,
):
    """client -> front -> back chain, fully instrumented.

    ``clocks`` maps process name to a LocalClock for skew experiments.
    """
    clocks = clocks or {}
    sim = Simulator()
    fabric = Fabric(sim, FabricConfig())
    collector = SymbiosysCollector(stage)

    def mk(addr, node, config):
        return MargoInstance(
            sim,
            fabric,
            addr,
            node,
            config=config,
            hg_config=hg_config,
            clock=clocks.get(addr, LocalClock()),
            instrumentation=collector.create_instrumentation(),
        )

    front = mk("front", "n0", server_config or MargoConfig(n_handler_es=2))
    back = mk("back", "n1", server_config or MargoConfig(n_handler_es=2))
    client = mk("cli", "n2", client_config or MargoConfig())

    # back: leaf service doing real work
    def leaf_handler(mi, handle):
        inp = yield from mi.get_input(handle)
        yield abt.Compute(200e-6)
        yield from mi.respond(handle, {"leaf": inp})

    back.register("leaf_op", leaf_handler)

    # front: fans out to back twice per request
    def front_handler(mi, handle):
        inp = yield from mi.get_input(handle)
        r1 = yield from mi.forward("back", "leaf_op", {"part": 1})
        r2 = yield from mi.forward("back", "leaf_op", {"part": 2})
        yield abt.Compute(50e-6)
        yield from mi.respond(handle, {"front": inp, "r1": r1, "r2": r2})

    front.register("front_op", front_handler)
    front.register("leaf_op")  # client-side registration for forwarding
    client.register("front_op")

    return SimpleNamespace(
        sim=sim,
        fabric=fabric,
        collector=collector,
        client=client,
        front=front,
        back=back,
    )


def drive_requests(world, n_requests, payload=None):
    """Issue ``n_requests`` front_op calls from the client; returns the
    results list (filled as the simulation runs)."""
    results = []

    def body(i):
        out = yield from world.client.forward(
            "front", "front_op", payload or {"req": i}
        )
        results.append(out)

    for i in range(n_requests):
        world.client.client_ult(body(i), name=f"req{i}")
    return results


def interval_summary(values):
    """The :class:`IntervalStats` a profile store keeps for ``values``,
    recorded one sample per row hand-out the way the hooks record."""
    store = ProfileStore()
    for value in values:
        store.row((0, "cli", "svr"))["origin_execution_time"].append(value)
    return store.get((0, "cli", "svr"), "origin_execution_time")
