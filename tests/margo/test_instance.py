"""Tests for MargoInstance: forwarding, providers, progress-loop placement."""

import pytest

from repro.margo import MargoConfig, MargoInstance
from repro.net import Fabric, FabricConfig
from repro.sim import LocalClock, Simulator
from .conftest import echo_handler, make_pair, run_client_calls


def test_forward_blocking_roundtrip():
    world = make_pair()
    world.server.register("echo", echo_handler)
    world.client.register("echo")
    results = run_client_calls(world, [("echo", {"n": 1})])
    world.sim.run(until=0.05)
    assert results == [{"echo": {"n": 1}}]


def test_forward_many_concurrent():
    world = make_pair()
    world.server.register("echo", echo_handler)
    world.client.register("echo")
    calls = [("echo", {"i": i}) for i in range(25)]
    results = run_client_calls(world, calls)
    world.sim.run(until=0.5)
    assert sorted(r["echo"]["i"] for r in results) == list(range(25))


def test_sequential_calls_in_one_ult():
    world = make_pair()
    world.server.register("echo", echo_handler)
    world.client.register("echo")
    results = []

    def body():
        for i in range(3):
            out = yield from world.client.forward("svr", "echo", {"seq": i})
            results.append(out["echo"]["seq"])

    world.client.client_ult(body())
    world.sim.run(until=0.5)
    assert results == [0, 1, 2]


def test_provider_dispatch_by_id():
    world = make_pair()

    def handler_a(mi, handle):
        yield from mi.get_input(handle)
        yield from mi.respond(handle, "provider-a")

    def handler_b(mi, handle):
        yield from mi.get_input(handle)
        yield from mi.respond(handle, "provider-b")

    world.server.register("op", handler_a, provider_id=1)
    world.server.register("op", handler_b, provider_id=2)
    world.client.register("op")
    results = []

    def body():
        r1 = yield from world.client.forward("svr", "op", {}, provider_id=1)
        r2 = yield from world.client.forward("svr", "op", {}, provider_id=2)
        results.extend([r1, r2])

    world.client.client_ult(body())
    world.sim.run(until=0.5)
    assert results == ["provider-a", "provider-b"]


def test_one_arrival_callback_serves_every_rpc_and_provider():
    world = make_pair()

    def handler_for(rpc, pid):
        def handler(mi, handle):
            yield from mi.get_input(handle)
            yield from mi.respond(handle, (rpc, pid))

        return handler

    for rpc in ("op", "other"):
        for pid in (1, 2):
            world.server.register(rpc, handler_for(rpc, pid), provider_id=pid)
        world.client.register(rpc)
    hg = world.server.hg
    assert hg._rpcs["op"] is hg._rpcs["other"] is world.server._arrival
    results = []

    def body():
        for rpc in ("op", "other"):
            for pid in (2, 1):
                out = yield from world.client.forward(
                    "svr", rpc, {}, provider_id=pid
                )
                results.append(out)

    world.client.client_ult(body())
    world.sim.run(until=0.5)
    assert results == [("op", 2), ("op", 1), ("other", 2), ("other", 1)]
    # The installed callback still cannot be replaced by another one.
    with pytest.raises(ValueError, match="already has a handler"):
        hg.register("op", lambda handle: None)


def test_missing_provider_id_fails_loudly():
    world = make_pair()
    world.server.register("op", echo_handler, provider_id=1)
    world.client.register("op")
    run_client_calls(world, [("op", {})])  # defaults to provider 0
    with pytest.raises(RuntimeError) as err:
        world.sim.run(until=0.05)
    assert str(err.value) == "svr: no provider 0 for RPC 'op'"


def test_duplicate_provider_registration_rejected():
    world = make_pair()
    world.server.register("op", echo_handler, provider_id=3)
    with pytest.raises(ValueError):
        world.server.register("op", echo_handler, provider_id=3)


def test_handler_must_respond():
    world = make_pair()

    def bad_handler(mi, handle):
        yield from mi.get_input(handle)
        # forgets to respond

    world.server.register("bad", bad_handler)
    world.client.register("bad")
    run_client_calls(world, [("bad", {})])
    with pytest.raises(RuntimeError, match="without responding"):
        world.sim.run(until=0.05)


def test_handler_marks_timeline_ordering():
    world = make_pair()
    seen = []

    def handler(mi, handle):
        yield from mi.get_input(handle)
        yield from mi.respond(handle, "ok")
        seen.append(handle)

    world.server.register("t", handler)
    world.client.register("t")
    run_client_calls(world, [("t", {})])
    world.sim.run(until=0.05)
    m = seen[0].marks
    assert m["t3"] <= m["t4"] <= m["t5"] <= m["t8"] <= m["t13"]


def test_origin_marks_timeline_ordering():
    world = make_pair()
    world.server.register("echo", echo_handler)
    world.client.register("echo")
    outs = []

    def body():
        yield from world.client.forward("svr", "echo", {})
        outs.append(True)

    world.client.client_ult(body())
    world.sim.run(until=0.05)
    assert outs == [True]


def test_handler_pool_queueing_delay():
    """More concurrent RPCs than handler ESs => t5-t4 gaps appear
    (the paper's target handler time)."""
    import repro.argobots as abt

    def slow_handler(mi, handle):
        yield from mi.get_input(handle)
        yield abt.Compute(1e-3)
        yield from mi.respond(handle, "done")

    world = make_pair(server_config=MargoConfig(n_handler_es=1))
    seen = []

    def spying_handler(mi, handle):
        seen.append(handle)
        yield from slow_handler(mi, handle)

    world.server.register("slow", spying_handler)
    world.client.register("slow")
    run_client_calls(world, [("slow", {}) for _ in range(4)])
    world.sim.run(until=1.0)
    handler_delays = sorted(h.marks["t5"] - h.marks["t4"] for h in seen)
    assert handler_delays[0] < 1e-4  # first request dispatched promptly
    assert handler_delays[-1] > 2e-3  # last one queued behind ~3ms of work


def test_more_handler_es_reduces_makespan():
    import repro.argobots as abt

    def slow_handler(mi, handle):
        yield from mi.get_input(handle)
        yield abt.Compute(1e-3)
        yield from mi.respond(handle, "done")

    makespans = {}
    for n_es in (1, 4):
        world = make_pair(server_config=MargoConfig(n_handler_es=n_es))
        world.server.register("slow", slow_handler)
        world.client.register("slow")
        results = run_client_calls(world, [("slow", {}) for _ in range(8)])
        world.sim.run(until=1.0)
        assert len(results) == 8
        makespans[n_es] = world.sim.now if results else None
        # measure last completion via a fresh run bound instead
    # With 4 ESs the 8x1ms of work overlaps; with 1 ES it serializes.
    # Compare total simulated completion indirectly via per-config rerun:
    times = {}
    for n_es in (1, 4):
        world = make_pair(server_config=MargoConfig(n_handler_es=n_es))
        world.server.register("slow", slow_handler)
        world.client.register("slow")
        done = []

        def body():
            yield from world.client.forward("svr", "slow", {})
            done.append(world.sim.now)

        for _ in range(8):
            world.client.client_ult(body())
        world.sim.run(until=1.0)
        times[n_es] = max(done)
    assert times[4] < times[1] * 0.5


def test_use_progress_thread_creates_dedicated_es():
    sim = Simulator()
    fabric = Fabric(sim, FabricConfig())
    mi = MargoInstance(
        sim, fabric, "p", "n0", config=MargoConfig(use_progress_thread=True)
    )
    # primary ES + progress ES
    assert len(mi.rt.xstreams) == 2
    assert mi.progress_pool is not mi.primary_pool


def test_no_progress_thread_shares_primary():
    sim = Simulator()
    fabric = Fabric(sim, FabricConfig())
    mi = MargoInstance(sim, fabric, "p", "n0")
    assert len(mi.rt.xstreams) == 1
    assert mi.progress_pool is mi.primary_pool


def test_handler_es_zero_uses_primary_pool():
    sim = Simulator()
    fabric = Fabric(sim, FabricConfig())
    mi = MargoInstance(sim, fabric, "p", "n0")
    assert mi.handler_pool is mi.primary_pool


def test_lamport_clock_rules():
    sim = Simulator()
    fabric = Fabric(sim, FabricConfig())
    mi = MargoInstance(sim, fabric, "p", "n0")
    assert mi.lamport_tick() == 1
    assert mi.lamport_tick() == 2
    assert mi.lamport_receive(10) == 11
    assert mi.lamport_receive(3) == 12


def test_local_clock_skew_applied():
    sim = Simulator()
    fabric = Fabric(sim, FabricConfig())
    mi = MargoInstance(
        sim, fabric, "p", "n0", clock=LocalClock(offset=5.0, drift=0.1)
    )
    sim.run(until=2.0)
    assert mi.local_time() == pytest.approx(5.0 + 1.1 * 2.0)


def test_request_ids_are_unique():
    sim = Simulator()
    fabric = Fabric(sim, FabricConfig())
    a = MargoInstance(sim, fabric, "a", "n0")
    b = MargoInstance(sim, fabric, "b", "n0")
    ids = {a.next_request_id() for _ in range(10)} | {
        b.next_request_id() for _ in range(10)
    }
    assert len(ids) == 20


def test_process_stats_memory_gauge():
    sim = Simulator()
    fabric = Fabric(sim, FabricConfig())
    mi = MargoInstance(sim, fabric, "p", "n0")
    mi.stats.add_memory(1000)
    mi.stats.add_memory(500)
    assert mi.stats.memory_bytes == 1500
    with pytest.raises(ValueError):
        mi.stats.add_memory(-10_000)


def test_cpu_utilization_between_samples():
    import repro.argobots as abt

    sim = Simulator()
    fabric = Fabric(sim, FabricConfig())
    mi = MargoInstance(sim, fabric, "p", "n0")

    def burn():
        yield abt.Compute(1.0)

    mi.client_ult(burn())
    sim.run(until=1.1)
    util = mi.stats.cpu_utilization()
    assert util > 0.85


def test_nested_rpc_child_time_accumulates():
    """A handler that issues a downstream RPC accumulates child time in
    its ULT-local storage (basis for exclusive execution time)."""
    sim = Simulator()
    fabric = Fabric(sim, FabricConfig())
    front = MargoInstance(sim, fabric, "front", "n0", config=MargoConfig(n_handler_es=1))
    back = MargoInstance(sim, fabric, "back", "n1", config=MargoConfig(n_handler_es=1))
    client = MargoInstance(sim, fabric, "cli", "n2")

    import repro.argobots as abt

    def back_handler(mi, handle):
        yield from mi.get_input(handle)
        yield abt.Compute(1e-3)
        yield from mi.respond(handle, "leaf")

    child_times = []

    def front_handler(mi, handle):
        yield from mi.get_input(handle)
        yield from mi.forward("back", "leaf_op", {})
        ult = mi.rt.self_ult()
        child_times.append(ult.local.get("child_rpc_time", 0.0))
        yield from mi.respond(handle, "root")

    back.register("leaf_op", back_handler)
    front.register("front_op", front_handler)
    front.register("leaf_op")
    client.register("front_op")
    done = []

    def body():
        out = yield from client.forward("front", "front_op", {})
        done.append(out)

    client.client_ult(body())
    sim.run(until=0.5)
    assert done == ["root"]
    assert child_times[0] > 1e-3


def test_margo_config_validation():
    with pytest.raises(ValueError):
        MargoConfig(n_handler_es=-1)


def test_finalize_stops_progress_loop():
    world = make_pair()
    world.server.register("echo", echo_handler)
    world.client.register("echo")
    results = run_client_calls(world, [("echo", {})])
    world.sim.run(until=0.05)
    assert len(results) == 1
    world.client.finalize()
    world.server.finalize()
    world.sim.run(until=1.0)
    # Both progress loops exited: simulation goes quiet.
    assert world.sim.pending_events == 0
