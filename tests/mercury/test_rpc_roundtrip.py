"""End-to-end Mercury RPC tests over the simulated fabric."""

import pytest

from repro.mercury import HGConfig
from .conftest import call_rpc, make_world, serve_echo


def test_echo_roundtrip(world):
    serve_echo(world.svr)
    results = []
    call_rpc(world.cli, "svr", "echo", {"msg": "hello"}, results)
    world.sim.run(until=0.05)
    assert len(results) == 1
    output, handle, t_done = results[0]
    assert output == {"echo": {"msg": "hello"}}
    assert t_done > 0


def test_many_concurrent_rpcs_all_complete(world):
    serve_echo(world.svr)
    results = []
    for i in range(32):
        call_rpc(world.cli, "svr", "echo", {"i": i}, results)
    world.sim.run(until=0.5)
    assert len(results) == 32
    assert sorted(r[0]["echo"]["i"] for r in results) == list(range(32))


def test_payload_really_arrives_not_a_stub(world):
    """The simulated stack transports real payload objects end to end."""
    serve_echo(world.svr)
    results = []
    payload = {"keys": [f"k{i}" for i in range(10)], "blob": b"\x01\x02" * 50}
    call_rpc(world.cli, "svr", "echo", payload, results)
    world.sim.run(until=0.05)
    assert results[0][0]["echo"] == payload


def test_rpc_latency_increases_with_handler_work():
    sim1, sides1 = make_world()
    serve_echo(sides1["svr"], work_time=0.0)
    fast = []
    call_rpc(sides1["cli"], "svr", "echo", {}, fast)
    sim1.run(until=0.5)

    sim2, sides2 = make_world()
    serve_echo(sides2["svr"], work_time=1e-3)
    slow = []
    call_rpc(sides2["cli"], "svr", "echo", {}, slow)
    sim2.run(until=0.5)

    assert slow[0][2] > fast[0][2] + 0.9e-3


def test_bigger_payload_takes_longer():
    sim1, sides1 = make_world()
    serve_echo(sides1["svr"])
    small = []
    call_rpc(sides1["cli"], "svr", "echo", "x", small)
    sim1.run(until=0.5)

    sim2, sides2 = make_world()
    serve_echo(sides2["svr"])
    big = []
    call_rpc(sides2["cli"], "svr", "echo", "x" * 200_000, big)
    sim2.run(until=0.5)

    assert big[0][2] > small[0][2]


def test_forward_requires_origin_handle(world):
    serve_echo(world.svr)
    results = []
    call_rpc(world.cli, "svr", "echo", {}, results)
    world.sim.run(until=0.05)
    # Build a fake target-side handle and try to forward it.
    from repro.mercury import HGHandle

    th = HGHandle(1, "echo", "cli", "svr", is_origin=False)
    gen = world.cli.hg.forward(th, {}, lambda h: None)
    with pytest.raises(ValueError):
        next(gen)


def test_respond_requires_target_handle(world):
    h = None
    world.cli.hg.register("echo")
    h = world.cli.hg.create("svr", "echo")
    gen = world.cli.hg.respond(h, {}, lambda hh: None)
    with pytest.raises(ValueError):
        next(gen)


def test_create_unregistered_rpc_raises(world):
    with pytest.raises(ValueError):
        world.cli.hg.create("svr", "nope")


def test_duplicate_handler_registration_raises(world):
    world.svr.hg.register("dup", lambda h: None)
    with pytest.raises(ValueError):
        world.svr.hg.register("dup", lambda h: None)


def test_client_only_registration_then_handler_ok(world):
    world.svr.hg.register("later")
    world.svr.hg.register("later", lambda h: None)  # upgrade to handler
    with pytest.raises(ValueError):  # the handler is installed now
        world.svr.hg.register("later", lambda h: None)


def test_request_for_handlerless_rpc_fails_loudly(world):
    world.svr.hg.register("void")  # no handler installed
    results = []
    call_rpc(world.cli, "svr", "void", {}, results)
    with pytest.raises(RuntimeError, match="no handler"):
        world.sim.run(until=0.05)


def test_header_metadata_propagates_to_target(world):
    """Margo rides callpath/trace metadata in the handle header."""
    seen = serve_echo(world.svr)
    results = []

    def body():
        world.cli.hg.register("echo")
        h = world.cli.hg.create("svr", "echo")
        h.header["callpath"] = 0xABCD
        h.header["request_id"] = "req-7"
        ev = world.cli.rt.eventual()
        yield from world.cli.hg.forward(h, {}, lambda hh: ev.signal(hh))
        yield from ev.wait()
        results.append(True)

    world.cli.rt.spawn(body(), world.cli.primary)
    world.sim.run(until=0.05)
    assert results == [True]
    assert seen[0].header == {"callpath": 0xABCD, "request_id": "req-7"}


def test_target_marks_t3_and_t4(world):
    seen = serve_echo(world.svr)
    results = []
    call_rpc(world.cli, "svr", "echo", {}, results)
    world.sim.run(until=0.05)
    h = seen[0]
    assert "t3" in h.marks and "t4" in h.marks
    assert h.marks["t4"] >= h.marks["t3"]


def test_intra_node_rpc_faster_than_inter_node():
    sim1, sides1 = make_world(names=(("cli", "n0"), ("svr", "n0")))
    serve_echo(sides1["svr"])
    same = []
    call_rpc(sides1["cli"], "svr", "echo", "payload" * 100, same)
    sim1.run(until=0.5)

    sim2, sides2 = make_world(names=(("cli", "n0"), ("svr", "n1")))
    serve_echo(sides2["svr"])
    cross = []
    call_rpc(sides2["cli"], "svr", "echo", "payload" * 100, cross)
    sim2.run(until=0.5)

    assert same[0][2] < cross[0][2]


def test_bulk_pull_transfers_and_times(world):
    """A handler can pull bulk data from the origin; duration scales with
    size."""
    durations = []

    def on_arrival(handle):
        def handler():
            yield from world.svr.hg.get_input(handle)
            d1 = yield from world.svr.hg.bulk_pull(handle, 1_000)
            d2 = yield from world.svr.hg.bulk_pull(handle, 10_000_000)
            durations.append((d1, d2))
            ev = world.svr.rt.eventual()
            yield from world.svr.hg.respond(handle, "ok", lambda h: ev.signal())
            yield from ev.wait()

        world.svr.rt.spawn(handler(), world.svr.handlers)

    world.svr.hg.register("bulk", on_arrival)
    results = []
    call_rpc(world.cli, "svr", "bulk", {}, results)
    world.sim.run(until=0.5)
    assert results[0][0] == "ok"
    d1, d2 = durations[0]
    assert d2 > d1 > 0


def test_bulk_pull_rejects_negative_size(world):
    world.svr.hg.register("x")
    from repro.mercury import HGHandle

    h = HGHandle(9, "x", "cli", "svr", is_origin=False)
    gen = world.svr.hg.bulk_pull(h, -5)
    with pytest.raises(ValueError):
        next(gen)
