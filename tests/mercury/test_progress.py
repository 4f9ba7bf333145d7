"""Focused tests for the Mercury progress/trigger engine."""

import pytest

from repro.argobots import AbtRuntime
from repro.mercury import HGConfig, HGCore
from repro.net import CQEntry, CQKind, Fabric, FabricConfig
from repro.sim import Simulator


def make_hg(**cfg):
    sim = Simulator()
    fabric = Fabric(sim, FabricConfig())
    rt = AbtRuntime(sim, ctx_switch_cost=0.0)
    pool = rt.create_pool()
    rt.create_xstream(pool)
    hg = HGCore(
        sim, fabric, fabric.create_endpoint("p"), rt,
        config=HGConfig(**cfg), pvars_enabled=True,
    )
    return sim, rt, pool, hg


def push_callback_entries(hg, n):
    for i in range(n):
        hg.endpoint.push(
            CQEntry(kind=CQKind.SEND_COMPLETE, payload=lambda: None,
                    enqueued_at=0.0)
        )


def test_progress_nonblocking_on_empty_queue():
    sim, rt, pool, hg = make_hg()
    out = {}

    def body():
        out["n"] = yield from hg.progress(timeout=0.0)
        out["t"] = sim.now

    rt.spawn(body(), pool)
    sim.run(until=1.0)
    assert out["n"] == 0
    assert out["t"] == 0.0


def test_progress_blocking_timeout_elapses():
    sim, rt, pool, hg = make_hg()
    out = {}

    def body():
        out["n"] = yield from hg.progress(timeout=5e-3)
        out["t"] = sim.now

    rt.spawn(body(), pool)
    sim.run(until=1.0)
    assert out["n"] == 0
    assert out["t"] == pytest.approx(5e-3)


def test_progress_wakes_early_on_arrival():
    sim, rt, pool, hg = make_hg()
    out = {}

    def body():
        out["n"] = yield from hg.progress(timeout=1.0)
        out["t"] = sim.now

    rt.spawn(body(), pool)
    sim.call_at(1e-3, push_callback_entries, hg, 3)
    sim.run(until=2.0)
    assert out["n"] == 3
    assert out["t"] == pytest.approx(1e-3)


def test_progress_caps_reads_at_live_ofi_max_events():
    sim, rt, pool, hg = make_hg(ofi_max_events=4)
    push_callback_entries(hg, 10)
    out = {}

    def body():
        out["first"] = yield from hg.progress(timeout=0.0)
        hg.set_ofi_max_events(8)
        out["second"] = yield from hg.progress(timeout=0.0)

    rt.spawn(body(), pool)
    sim.run(until=1.0)
    assert out["first"] == 4
    assert out["second"] == 6  # remaining, within the raised cap


def test_set_ofi_max_events_validation():
    sim, rt, pool, hg = make_hg()
    with pytest.raises(ValueError):
        hg.set_ofi_max_events(0)


def test_trigger_charges_callback_cost():
    sim, rt, pool, hg = make_hg(callback_cost=1e-3)
    for _ in range(4):
        hg._completion_queue.append(lambda: None)
    out = {}

    def body():
        yield from hg.trigger()
        out["t"] = sim.now

    rt.spawn(body(), pool)
    sim.run(until=1.0)
    assert out["t"] == pytest.approx(4e-3)


def test_completion_queue_size_pvar_tracks_backlog():
    sim, rt, pool, hg = make_hg()
    sess = hg.pvar_session_init()
    assert sess.read_by_name("completion_queue_size") == 0
    push_callback_entries(hg, 5)
    out = {}

    def body():
        yield from hg.progress(timeout=0.0)
        out["queued"] = sess.read_by_name("completion_queue_size")
        yield from hg.trigger()
        out["drained"] = sess.read_by_name("completion_queue_size")

    rt.spawn(body(), pool)
    sim.run(until=1.0)
    assert out["queued"] == 5
    assert out["drained"] == 0


def test_cancel_unknown_handle_is_false():
    sim, rt, pool, hg = make_hg()
    hg.register("x")
    handle = hg.create("p", "x")
    assert hg.cancel(handle) is False
