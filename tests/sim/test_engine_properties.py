"""Property-based tests for kernel scheduling invariants."""

from hypothesis import given, settings, strategies as st

from repro.sim import Simulator


@given(st.lists(st.floats(0, 1e3, allow_nan=False), min_size=1, max_size=60))
@settings(max_examples=80)
def test_callbacks_fire_in_time_order(delays):
    sim = Simulator()
    fired = []
    for i, d in enumerate(delays):
        sim.call_at(d, fired.append, (d, i))
    sim.run()
    times = [t for t, _ in fired]
    assert times == sorted(times)
    assert len(fired) == len(delays)


@given(st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=40))
@settings(max_examples=80)
def test_equal_times_fire_fifo(delays):
    sim = Simulator()
    fired = []
    # Half the entries share one timestamp: FIFO among them.
    for i, d in enumerate(delays):
        when = 5.0 if i % 2 == 0 else d
        sim.call_at(when, fired.append, (when, i))
    sim.run()
    same = [i for t, i in fired if t == 5.0]
    assert same == sorted(same)


@given(st.integers(1, 40), st.integers(1, 8))
@settings(max_examples=40)
def test_scheduler_conserves_ults(n_ults, n_es):
    """Every spawned ULT terminates; blocked count returns to zero."""
    from repro.argobots import AbtRuntime, Compute

    sim = Simulator()
    rt = AbtRuntime(sim, ctx_switch_cost=0.0)
    pool = rt.create_pool()
    for _ in range(n_es):
        rt.create_xstream(pool)
    ev = rt.eventual()

    def waiter():
        yield from ev.wait()
        yield Compute(1e-6)

    def releaser():
        yield Compute(1e-3)
        ev.signal("go")

    for _ in range(n_ults):
        rt.spawn(waiter(), pool)
    rt.spawn(releaser(), pool)
    sim.run(until=1.0)
    assert rt.total_finished == rt.total_spawned == n_ults + 1
    assert rt.num_blocked == 0
    assert rt.num_ready == 0


@given(st.integers(2, 6), st.integers(2, 20))
@settings(max_examples=30)
def test_mutex_serialization_conservation(n_es, n_writers):
    """Total time inside a mutex-protected section equals the sum of the
    individual critical sections, regardless of ES count."""
    from repro.argobots import AbtRuntime, Compute

    sim = Simulator()
    rt = AbtRuntime(sim, ctx_switch_cost=0.0)
    pool = rt.create_pool()
    for _ in range(n_es):
        rt.create_xstream(pool)
    m = rt.mutex()
    section = 1e-3
    spans = []

    def writer():
        yield from m.lock()
        start = sim.now
        yield Compute(section)
        m.unlock()
        spans.append((start, sim.now))

    for _ in range(n_writers):
        rt.spawn(writer(), pool)
    sim.run(until=10.0)
    assert len(spans) == n_writers
    spans.sort()
    # No overlap, and the last section ends at >= n * section.
    for (s1, e1), (s2, _) in zip(spans, spans[1:]):
        assert s2 >= e1 - 1e-12
    assert spans[-1][1] >= n_writers * section - 1e-9
