"""Tests for the fabric timing model and message delivery."""

import pytest

from repro.faults import DropRule, FaultInjector, FaultPlan
from repro.net import CQKind, Fabric, FabricConfig, Message, WireFault
from repro.sim import Simulator


def make_fabric(**cfg):
    sim = Simulator()
    fabric = Fabric(sim, FabricConfig(**cfg))
    a = fabric.create_endpoint("a", node="n0")
    b = fabric.create_endpoint("b", node="n1")
    return sim, fabric, a, b


def test_message_delivered_after_wire_time():
    sim, fabric, a, b = make_fabric(latency=1e-6, bandwidth=1e9)
    msg = Message(src="a", dst="b", size_bytes=1000, payload="hi")
    t = fabric.send(msg)
    assert t == pytest.approx(1e-6 + 1000 / 1e9)
    sim.run()
    assert b.cq_depth == 1
    entry = b.cq_read(16)[0]
    assert entry.kind is CQKind.RECV
    assert entry.payload.payload == "hi"
    assert entry.enqueued_at == pytest.approx(t)


def test_zero_size_message_takes_latency_only():
    sim, fabric, a, b = make_fabric(latency=2e-6)
    t = fabric.send(Message(src="a", dst="b", size_bytes=0, payload=None))
    assert t == pytest.approx(2e-6)


def test_larger_messages_take_longer():
    sim, fabric, a, b = make_fabric(latency=1e-6, bandwidth=1e9)
    t_small = fabric.wire_time("n0", "n1", 1_000)
    t_big = fabric.wire_time("n0", "n1", 1_000_000)
    assert t_big > t_small
    assert t_big - t_small == pytest.approx(999_000 / 1e9)


def test_intra_node_transfer_is_faster():
    sim = Simulator()
    fabric = Fabric(
        sim,
        FabricConfig(
            latency=2e-6,
            bandwidth=8e9,
            intra_node_latency=0.2e-6,
            intra_node_bandwidth=24e9,
        ),
    )
    fabric.create_endpoint("x", node="n0")
    fabric.create_endpoint("y", node="n0")
    fabric.create_endpoint("z", node="n1")
    assert fabric.wire_time("n0", "n0", 4096) < fabric.wire_time("n0", "n1", 4096)


def test_empty_node_names_never_count_as_same_node():
    sim = Simulator()
    fabric = Fabric(sim, FabricConfig(latency=1e-6, intra_node_latency=1e-9))
    assert fabric.wire_time("", "", 0) == pytest.approx(1e-6)


def test_local_send_completion_fires_after_injection():
    sim, fabric, a, b = make_fabric(latency=1e-6, bandwidth=1e9)
    fired = []
    fabric.send(
        Message(src="a", dst="b", size_bytes=2000, payload=None),
        on_local_complete=lambda: fired.append(sim.now),
    )
    sim.run()
    assert fired == [pytest.approx(2000 / 1e9)]


def test_dropped_send_completes_locally_at_the_delivered_instant():
    """A wire drop loses only the delivery: a same-node send still
    injects at the intra-node bandwidth, so a colocated handler's t13
    does not move when its response is lost."""
    fired = {}
    for lossy in (False, True):
        sim = Simulator()
        fabric = Fabric(sim, FabricConfig(bandwidth=8e9, intra_node_bandwidth=24e9))
        fabric.create_endpoint("svr", node="n0")
        fabric.create_endpoint("cli", node="n0")
        if lossy:
            plan = FaultPlan(wire_rules=[DropRule(src="svr", dst="cli")])
            FaultInjector(sim, plan).install(fabric)
        fabric.send(
            Message(src="svr", dst="cli", size_bytes=24_000, payload=None,
                    kind="rpc_response"),
            on_local_complete=lambda lossy=lossy, sim=sim: fired.setdefault(
                lossy, sim.now
            ),
        )
        sim.run()
        assert fabric.total_dropped == int(lossy)
    assert fired[True] == fired[False] == pytest.approx(24_000 / 24e9)


def test_duplicate_endpoint_address_rejected():
    sim, fabric, a, b = make_fabric()
    with pytest.raises(ValueError):
        fabric.create_endpoint("a")


def test_unknown_endpoint_rejected():
    sim, fabric, a, b = make_fabric()
    with pytest.raises(KeyError):
        fabric.send(Message(src="a", dst="nope", size_bytes=0, payload=None))


def test_send_to_unknown_address_still_raises():
    sim, fabric, a, b = make_fabric()
    with pytest.raises(KeyError):
        fabric.send(Message(src="a", dst="nowhere", size_bytes=8,
                            payload=None))
    with pytest.raises(KeyError):
        fabric.rdma_get("a", "nowhere", size_bytes=8)
    # Nothing was counted on the wire for a transfer that never started.
    assert fabric.total_messages == 0
    assert fabric.total_bytes == 0


def test_negative_fault_delay_rejected_at_construction():
    with pytest.raises(ValueError, match="extra_delay"):
        WireFault(extra_delay=-1e-6)
    with pytest.raises(ValueError, match="copies"):
        WireFault(copies=-1)


def test_negative_message_size_rejected():
    with pytest.raises(ValueError):
        Message(src="a", dst="b", size_bytes=-1, payload=None)


def test_traffic_accounting():
    sim, fabric, a, b = make_fabric()
    fabric.send(Message(src="a", dst="b", size_bytes=100, payload=None))
    fabric.send(Message(src="b", dst="a", size_bytes=50, payload=None))
    assert fabric.total_messages == 2
    assert fabric.total_bytes == 150


def test_rdma_get_completion_via_cq():
    sim, fabric, a, b = make_fabric(latency=1e-6, bandwidth=1e9)
    t = fabric.rdma_get("b", "a", size_bytes=10_000, payload="bulk-tag")
    assert t == pytest.approx(2e-6 + 10_000 / 1e9)
    sim.run()
    (entry,) = b.cq_read(16)
    assert entry.kind is CQKind.RDMA_COMPLETE
    assert entry.payload == "bulk-tag"


def test_no_jitter_is_deterministic():
    sim, fabric, a, b = make_fabric(latency=1e-6)
    times = {fabric.wire_time("n0", "n1", 512) for _ in range(16)}
    assert len(times) == 1


def test_config_validation():
    with pytest.raises(ValueError):
        FabricConfig(latency=-1.0)
    with pytest.raises(ValueError):
        FabricConfig(bandwidth=0)


def test_fifo_delivery_for_same_size_messages():
    sim, fabric, a, b = make_fabric()
    for i in range(5):
        fabric.send(Message(src="a", dst="b", size_bytes=64, payload=i))
    sim.run()
    entries = b.cq_read(16)
    assert [e.payload.payload for e in entries] == [0, 1, 2, 3, 4]
