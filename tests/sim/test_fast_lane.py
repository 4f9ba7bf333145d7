"""Kernel ordering and event-driven-wait laws.

Every callback rides one heap in ``(when, seq)`` order; these tests pin
the ordering law that upholds (same-timestamp events fire in scheduling
order, so entries queued for T before ``now`` reached T run before the
ones scheduled at T) and the event-driven wait APIs.
"""

import pytest

from repro.sim import (
    AnyOf,
    SimEvent,
    SimulationError,
    Simulator,
    Timeout,
    all_of,
)


def test_same_instant_call_at_preserves_fifo():
    sim = Simulator()
    order = []

    def hop(tag, n):
        order.append(tag)
        if n > 0:
            sim.call_at(sim.now, hop, tag, n - 1)

    sim.call_at(1.0, hop, "a", 2)
    sim.call_at(1.0, hop, "b", 2)
    sim.run()
    # Heap entries at t=1 fire first (a, b); their same-instant
    # reschedules interleave in FIFO order behind them.
    assert order == ["a", "b", "a", "b", "a", "b"]
    assert sim.now == 1.0


def test_heap_entries_at_now_precede_fast_lane_entries():
    sim = Simulator()
    order = []

    def first():
        order.append("first")
        # Scheduled AT the current instant: its later seq puts it after
        # the entries already queued for this same timestamp.
        sim.call_at(sim.now, order.append, "lane")

    sim.call_at(2.0, first)
    sim.call_at(2.0, order.append, "heap")
    sim.run()
    assert order == ["first", "heap", "lane"]


def test_event_succeed_callbacks_ride_the_queue_in_order():
    sim = Simulator()
    order = []
    ev = sim.event("e")
    ev.add_callback(lambda e: order.append("cb1"))
    ev.add_callback(lambda e: order.append("cb2"))

    def fire():
        ev.succeed(41)
        order.append("after-succeed")

    sim.call_at(1.0, fire)
    sim.run()
    # succeed() enqueues; the callbacks run after the firing frame ends.
    assert order == ["after-succeed", "cb1", "cb2"]
    assert ev.value == 41


def test_spawn_runs_in_spawn_order_at_current_instant():
    sim = Simulator()
    order = []

    def body(tag):
        order.append(tag)
        yield Timeout(0.0)
        order.append(tag + "'")

    sim.spawn(body("a"))
    sim.spawn(body("b"))
    sim.run()
    assert order == ["a", "b", "a'", "b'"]
    assert sim.now == 0.0


def test_anyof_losing_timeout_branch_is_a_noop():
    sim = Simulator()
    results = []

    def body():
        ev = sim.event()
        sim.call_after(1e-6, ev.succeed, "win")
        idx, value = yield AnyOf([ev, Timeout(5e-6, "lose")])
        results.append((idx, value))
        # Park past the loser timeout: its queued callback must fire
        # harmlessly without resuming this task a second time.
        yield Timeout(10e-6)
        results.append("done")

    sim.spawn(body())
    sim.run()
    assert results == [(0, "win"), "done"]
    assert sim.pending_events == 0


def test_anyof_losing_event_branch_stays_available():
    sim = Simulator()
    other = sim.event("other")
    seen = []

    def racer():
        idx, _ = yield AnyOf([Timeout(1e-6), other])
        seen.append(("racer", idx))

    def late_waiter():
        value = yield other
        seen.append(("late", value))

    sim.spawn(racer())
    sim.spawn(late_waiter())
    sim.call_at(5e-6, other.succeed, "finally")
    sim.run()
    assert ("racer", 0) in seen
    assert ("late", "finally") in seen


def test_run_until_event_stops_at_firing_instant():
    sim = Simulator()
    ev = sim.event()
    hits = []
    sim.call_at(1.0, ev.succeed)
    sim.call_at(2.0, hits.append, "late")
    assert sim.run_until_event(ev, limit=10.0)
    assert sim.now == 1.0
    assert hits == []  # nothing past the firing instant was simulated
    assert sim.pending_events == 1


def test_run_until_event_same_instant_callbacks_still_run():
    sim = Simulator()
    ev = sim.event()
    hits = []
    # Registered BEFORE the wait's waker: runs at the firing instant,
    # before the stop.
    ev.add_callback(lambda e: hits.append("cb"))
    sim.call_at(1.0, ev.succeed)
    assert sim.run_until_event(ev, limit=10.0)
    assert hits == ["cb"]


def test_run_until_event_respects_limit_and_disarms():
    sim = Simulator()
    ev = sim.event()
    sim.call_at(8.0, ev.succeed)
    assert not sim.run_until_event(ev, limit=2.0)
    assert sim.now == 2.0
    # The waker is disarmed: a later full drain must not be aborted by
    # the stale registration when the event finally fires.
    sim.run()
    assert ev.fired
    assert sim.now == 8.0
    assert sim.pending_events == 0


def test_run_until_event_already_fired_returns_immediately():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(7)
    assert sim.run_until_event(ev, limit=1.0)
    assert sim.now == 0.0


def test_run_until_event_rejects_foreign_event():
    sim = Simulator()
    other = Simulator()
    with pytest.raises(SimulationError):
        sim.run_until_event(SimEvent(other), limit=1.0)


def test_all_of_fires_after_last_branch():
    sim = Simulator()
    events = [sim.event(f"e{i}") for i in range(3)]
    latch = all_of(sim, events)
    for i, ev in enumerate(events):
        sim.call_at(float(i + 1), ev.succeed)
    assert sim.run_until_event(latch, limit=10.0)
    assert sim.now == 3.0
    assert latch.value == 3.0


def test_all_of_with_prefired_and_empty():
    sim = Simulator()
    fired = sim.event().succeed()
    pending = sim.event()
    latch = all_of(sim, [fired, pending])
    sim.call_at(2.0, pending.succeed)
    assert sim.run_until_event(latch, limit=10.0)
    assert latch.fired

    empty = all_of(sim, [])
    assert empty.fired


def test_task_done_is_lazy_but_complete():
    sim = Simulator()

    def body():
        yield Timeout(1.0)
        return "result"

    task = sim.spawn(body())
    sim.run()
    assert task.finished
    # done was never touched during the run; materializing it afterwards
    # still yields a fired event carrying the return value.
    assert task.done.fired
    assert task.done.value == "result"


def test_task_done_awaitable_before_finish():
    sim = Simulator()
    got = []

    def worker():
        yield Timeout(1.0)
        return 42

    def waiter(t):
        value = yield t.done
        got.append(value)

    task = sim.spawn(worker())
    sim.spawn(waiter(task))
    sim.run()
    assert got == [42]


def test_events_processed_counts_callbacks():
    sim = Simulator()
    for i in range(5):
        sim.call_at(float(i), lambda: None)
    sim.run()
    assert sim.events_processed == 5
