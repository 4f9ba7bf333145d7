"""Tests for the in-situ policy engine (dynamic reconfiguration)."""

import pytest

from repro.margo import MargoConfig, MargoInstance
from repro.net import Fabric, FabricConfig
from repro.sim import Simulator
from repro.symbiosys import (
    DedicateProgressES,
    MetricSample,
    Policy,
    PolicyEngine,
    RaiseOfiMaxEvents,
)


def mk_sample(**kw):
    defaults = dict(
        time=0.0,
        ofi_events_read=0,
        ofi_max_events=16,
        cq_depth=0,
        completion_queue_size=0,
        num_blocked=0,
        num_ready=0,
    )
    defaults.update(kw)
    return MetricSample(**defaults)


# ------------------------------------------------------------ rule units


def test_raise_ofi_condition_requires_pegging():
    p = RaiseOfiMaxEvents(window=4, pegged_fraction=0.75)
    pegged = [mk_sample(ofi_events_read=16)] * 4
    idle = [mk_sample(ofi_events_read=2)] * 4
    assert p.condition(pegged)
    assert not p.condition(idle)
    mixed = [mk_sample(ofi_events_read=16)] * 2 + [mk_sample(ofi_events_read=1)] * 2
    assert not p.condition(mixed)  # only 50% pegged < 75%


def test_raise_ofi_respects_max_cap():
    p = RaiseOfiMaxEvents(max_cap=32)
    capped = [mk_sample(ofi_events_read=32, ofi_max_events=32)] * 4
    assert not p.condition(capped)


def test_raise_ofi_validation():
    with pytest.raises(ValueError):
        RaiseOfiMaxEvents(pegged_fraction=0.0)
    with pytest.raises(ValueError):
        RaiseOfiMaxEvents(factor=1)


def test_dedicate_progress_condition():
    p = DedicateProgressES(window=4, depth_threshold=8)
    deep = [mk_sample(cq_depth=10)] * 4
    shallow = [mk_sample(cq_depth=1)] * 4
    assert p.condition(deep)
    assert not p.condition(shallow)
    # Completion-queue depth counts too.
    hybrid = [mk_sample(cq_depth=4, completion_queue_size=5)] * 4
    assert p.condition(hybrid)


def test_policy_cooldown_and_history_gates():
    p = RaiseOfiMaxEvents(window=2, cooldown=1.0)
    h = [mk_sample(ofi_events_read=16)] * 2
    assert p.ready(now=0.0, history=h)
    p.last_fired = 0.0
    assert not p.ready(now=0.5, history=h)
    assert p.ready(now=1.5, history=h)
    assert not p.ready(now=10.0, history=h[:1])  # too little history


def test_policy_base_class_is_abstract():
    p = Policy()
    with pytest.raises(NotImplementedError):
        p.condition([])
    with pytest.raises(NotImplementedError):
        p.apply(None)


# ------------------------------------------------------------ engine integration


def make_world(**client_cfg):
    sim = Simulator()
    fabric = Fabric(sim, FabricConfig())
    server = MargoInstance(
        sim, fabric, "svr", "n0", config=MargoConfig(n_handler_es=2)
    )
    client = MargoInstance(sim, fabric, "cli", "n1", config=MargoConfig(**client_cfg))
    return sim, server, client


def test_engine_samples_periodically():
    sim, server, client = make_world()
    engine = PolicyEngine(client, [], period=1e-3)
    sim.run(until=10.5e-3)
    assert 8 <= len(engine.history) <= 11
    times = [s.time for s in engine.history]
    assert times == sorted(times)


def test_engine_stop():
    sim, server, client = make_world()
    engine = PolicyEngine(client, [], period=1e-3)
    sim.run(until=5e-3)
    n = len(engine.history)
    engine.stop()
    sim.run(until=20e-3)
    assert len(engine.history) <= n + 1


def test_engine_enables_pvars():
    sim, server, client = make_world()
    assert not client.hg.pvars_enabled
    PolicyEngine(client, [])
    assert client.hg.pvars_enabled


def test_engine_dedicated_monitor_es():
    sim, server, client = make_world()
    before = len(client.rt.xstreams)
    PolicyEngine(client, [])
    assert len(client.rt.xstreams) == before + 1


def test_engine_history_bounded():
    sim, server, client = make_world()
    engine = PolicyEngine(client, [], period=1e-5, history_limit=50)
    sim.run(until=5e-3)
    assert len(engine.history) <= 50


def test_engine_validation():
    sim, server, client = make_world()
    with pytest.raises(ValueError):
        PolicyEngine(client, [], period=0)


def test_engine_fires_raise_ofi_under_synthetic_backlog():
    """Flood the client CQ so num_ofi_events_read pegs; the policy must
    raise the cap and log the action."""
    sim, server, client = make_world()
    engine = PolicyEngine(
        client,
        [RaiseOfiMaxEvents(window=3, cooldown=0.5e-3, max_cap=64)],
        period=0.2e-3,
    )

    # Synthetic pressure: a deep backlog of RDMA completion entries that
    # the progress loop drains in capped batches.
    from repro.net import CQEntry, CQKind

    for _ in range(4000):
        ev = client.rt.eventual()
        client.endpoint.push(
            CQEntry(kind=CQKind.RDMA_COMPLETE, payload=("bulk", ev),
                    enqueued_at=0.0)
        )
    sim.run(until=30e-3)
    assert engine.actions, "policy never fired despite pegged reads"
    assert client.hg.ofi_max_events > 16
    assert engine.actions[0].policy == "RaiseOfiMaxEvents"

