"""Tests for runtime reconfiguration: progress-ULT migration, live OFI
cap changes, and the ULT sleep primitive."""

import pytest

import repro.argobots as abt
from repro.argobots import AbtRuntime
from repro.sim import Simulator
from .conftest import echo_handler, make_pair, run_client_calls


def test_rt_sleep_blocks_for_duration():
    sim = Simulator()
    rt = AbtRuntime(sim, ctx_switch_cost=0.0)
    pool = rt.create_pool()
    rt.create_xstream(pool)
    out = []

    def body():
        yield from rt.sleep(1.5)
        out.append(sim.now)

    rt.spawn(body(), pool)
    sim.run(until=5.0)
    assert out == [1.5]


def test_rt_sleep_frees_es():
    sim = Simulator()
    rt = AbtRuntime(sim, ctx_switch_cost=0.0)
    pool = rt.create_pool()
    rt.create_xstream(pool)
    out = []

    def sleeper():
        yield from rt.sleep(10.0)
        out.append(("sleeper", sim.now))

    def worker():
        yield abt.Compute(1.0)
        out.append(("worker", sim.now))

    rt.spawn(sleeper(), pool)
    rt.spawn(worker(), pool)
    sim.run(until=20.0)
    # The worker ran while the sleeper was blocked on the single ES.
    assert out == [("worker", 1.0), ("sleeper", 10.0)]


def test_rt_sleep_rejects_negative():
    sim = Simulator()
    rt = AbtRuntime(sim)
    gen = rt.sleep(-1.0)
    with pytest.raises(ValueError):
        next(gen)


def test_set_ofi_max_events_runtime():
    world = make_pair()
    assert world.client.hg.ofi_max_events == 16
    world.client.set_ofi_max_events(64)
    assert world.client.hg.ofi_max_events == 64
    with pytest.raises(ValueError):
        world.client.set_ofi_max_events(0)


def test_enable_progress_thread_migrates_loop():
    world = make_pair()
    client = world.client
    assert client.progress_pool is client.primary_pool
    migrated = client.enable_progress_thread()
    assert migrated
    assert client.progress_pool is not client.primary_pool
    # Second call is a no-op.
    assert not client.enable_progress_thread()

    # RPCs still complete after the migration.
    world.server.register("echo", echo_handler)
    client.register("echo")
    results = run_client_calls(world, [("echo", {"i": i}) for i in range(5)])
    world.sim.run_until(lambda: len(results) == 5, limit=1.0)
    assert len(results) == 5


def test_progress_migration_midstream():
    """Migrating while RPCs are in flight loses nothing."""
    world = make_pair()
    world.server.register("echo", echo_handler)
    world.client.register("echo")
    results = run_client_calls(world, [("echo", {"i": i}) for i in range(20)])
    # Let a few complete, then migrate mid-run.
    world.sim.run_until(lambda: len(results) >= 3, limit=1.0)
    world.client.enable_progress_thread()
    world.sim.run_until(lambda: len(results) == 20, limit=2.0)
    assert sorted(r["echo"]["i"] for r in results) == list(range(20))
