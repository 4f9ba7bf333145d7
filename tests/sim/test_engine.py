"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import SimulationError, Simulator, StopSimulation


def test_time_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0
    assert sim.pending_events == 0


def test_call_at_runs_in_time_order():
    sim = Simulator()
    seen = []
    sim.call_at(2.0, seen.append, "b")
    sim.call_at(1.0, seen.append, "a")
    sim.call_at(3.0, seen.append, "c")
    sim.run()
    assert seen == ["a", "b", "c"]
    assert sim.now == 3.0


def test_same_timestamp_fifo_order():
    sim = Simulator()
    seen = []
    for tag in range(10):
        sim.call_at(1.0, seen.append, tag)
    sim.run()
    assert seen == list(range(10))


def test_call_after_is_relative():
    sim = Simulator()
    out = []
    sim.call_at(5.0, lambda: sim.call_after(2.5, lambda: out.append(sim.now)))
    sim.run()
    assert out == [7.5]


def test_cannot_schedule_in_past():
    sim = Simulator()
    sim.call_at(10.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.call_at(5.0, lambda: None)


def test_run_until_stops_at_bound():
    sim = Simulator()
    seen = []
    sim.call_at(1.0, seen.append, 1)
    sim.call_at(10.0, seen.append, 10)
    sim.run(until=5.0)
    assert seen == [1]
    assert sim.now == 5.0
    # Remaining events still fire on a later run.
    sim.run()
    assert seen == [1, 10]


def test_run_until_advances_time_even_with_empty_queue():
    sim = Simulator()
    sim.run(until=42.0)
    assert sim.now == 42.0


def test_run_until_the_past_raises_and_keeps_the_clock():
    sim = Simulator()
    seen = []
    sim.call_at(5.0, seen.append, 5)
    sim.call_at(1.0, seen.append, 1)
    sim.run(until=2.0)
    assert sim.now == 2.0
    with pytest.raises(SimulationError, match="past"):
        sim.run(until=1.5)
    # Nothing moved: the clock, the queue and the run flag.
    assert sim.now == 2.0
    assert sim.pending_events == 1
    assert sim.run(until=2.0) == 2.0
    sim.run()
    assert seen == [1, 5]
    assert sim.now == 5.0


def test_run_max_events_bounds_processing():
    sim = Simulator()
    seen = []
    for i in range(100):
        sim.call_at(float(i), seen.append, i)
    sim.run(max_events=3)
    assert seen == [0, 1, 2]


def test_stop_simulation_halts_run():
    sim = Simulator()
    seen = []

    def boom():
        raise StopSimulation()

    sim.call_at(1.0, seen.append, 1)
    sim.call_at(2.0, boom)
    sim.call_at(3.0, seen.append, 3)
    sim.run()
    assert seen == [1]
    assert sim.now == 2.0


def test_stop_inside_bounded_run_keeps_firing_instant_and_counts():
    sim = Simulator()
    seen = []

    def stop():
        raise StopSimulation()

    sim.call_at(1.0, seen.append, 1)
    sim.call_at(2.0, stop)
    sim.call_at(9.0, seen.append, 9)  # past the bound
    assert sim.run(until=5.0) == 2.0
    # The stop wins over the bound: time stays at the firing instant
    # instead of jumping to ``until``, and the stopping callback counts.
    assert sim.now == 2.0
    assert seen == [1]
    assert sim.events_processed == 2
    assert sim.pending_events == 1


def test_event_wait_and_succeed():
    sim = Simulator()
    ev = sim.event("gate")
    results = []

    def waiter(tag):
        ev.add_callback(lambda e: results.append((tag, e.value, sim.now)))

    waiter("a")
    waiter("b")
    sim.call_at(3.0, ev.succeed, 99)
    sim.run()
    assert results == [("a", 99, 3.0), ("b", 99, 3.0)]


def test_wait_on_already_fired_event_resumes_immediately():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("early")
    out = []

    def waiter():
        ev.add_callback(lambda e: out.append((e.value, sim.now)))

    sim.call_at(2.0, waiter)
    sim.run()
    # The late callback runs at the instant it was added, not before.
    assert out == [("early", 2.0)]
    assert sim.events_processed == 2


def test_event_fires_only_once():
    sim = Simulator()
    ev = sim.event()
    fired = []
    ev.add_callback(fired.append)
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)
    sim.run()
    assert fired == [ev]
    assert ev.value == 1


def test_event_value_before_fire_raises():
    sim = Simulator()
    ev = sim.event("pending")
    with pytest.raises(SimulationError):
        _ = ev.value


def test_run_not_reentrant():
    sim = Simulator()

    def evil():
        sim.run()

    sim.call_at(0.0, evil)
    with pytest.raises(SimulationError):
        sim.run()


def test_run_until_stops_on_predicate():
    sim = Simulator()
    hits = []
    for i in range(100):
        sim.call_at(float(i), hits.append, i)
    ok = sim.run_until(lambda: len(hits) >= 10, limit=1000.0)
    assert ok
    # Event-driven: stops exactly at the event that flipped the predicate,
    # with no idle tail simulated past it.
    assert len(hits) == 10
    assert sim.now == 9.0


def test_run_until_respects_limit():
    sim = Simulator()
    ok = sim.run_until(lambda: False, limit=5.0)
    assert not ok
    assert sim.now == 5.0


def test_run_until_does_not_run_past_firing_instant():
    # Regression: the old fixed-step implementation kept processing
    # events up to the next step boundary after the predicate flipped.
    sim = Simulator()
    hits = []
    sim.call_at(1.0, hits.append, "a")
    sim.call_at(1.5, hits.append, "b")  # must NOT be processed
    ok = sim.run_until(lambda: "a" in hits, limit=10.0)
    assert ok
    assert hits == ["a"]
    assert sim.now == 1.0
    assert sim.pending_events == 1


def test_run_until_immediate_predicate():
    sim = Simulator()
    assert sim.run_until(lambda: True, limit=100.0)
    assert sim.now == 0.0
