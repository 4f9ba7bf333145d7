"""Kernel ordering, event-driven-wait and inline-advance laws.

Every callback rides one heap in ``(when, seq)`` order; these tests pin
the ordering law that upholds (same-timestamp events fire in scheduling
order, so entries queued for T before ``now`` reached T run before the
ones scheduled at T), the event-driven wait APIs, and the one step that
may skip the heap without bending that order (``try_advance``).
"""

import pytest

from repro.argobots import AbtRuntime, Compute
from repro.sim import SimEvent, SimulationError, Simulator, StopSimulation, all_of


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
    assert ev._fired
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
    # Already fired on the other simulator: still foreign, not "done".
    with pytest.raises(SimulationError):
        sim.run_until_event(other.event().succeed(), limit=1.0)


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
    assert latch._fired

    empty = all_of(sim, [])
    assert empty._fired


def test_events_processed_counts_callbacks():
    sim = Simulator()
    for i in range(5):
        sim.call_at(float(i), lambda: None)
    sim.run()
    assert sim.events_processed == 5


# -- the inline path: Simulator.try_advance and the execution stream ------
#
# A ``Compute`` whose end no queued event can precede completes in place:
# the ES moves the clock instead of pushing and popping ``_computed``.
# Each rule below is one reason that is exactly the heap's behaviour.


def _one_es():
    sim = Simulator()
    rt = AbtRuntime(sim, ctx_switch_cost=0.0)
    pool = rt.create_pool("p")
    rt.create_xstream(pool)
    return sim, rt, pool


def _computes(sim, log, *durations):
    def body():
        for d in durations:
            yield Compute(d)
            log.append(("ult", sim.now))

    return body()


def test_try_advance_only_when_no_queued_event_can_run_first():
    sim = Simulator()
    results = []

    def probe():
        results.append(sim.try_advance(1.0))  # the head is at 1.0: no
        results.append(sim.try_advance(0.5))  # strictly before it: yes
        results.append(sim.now)

    sim.call_at(0.0, probe)
    sim.call_at(1.0, results.append, "head")
    sim.run()
    assert results == [False, True, 0.5, "head"]
    assert sim.events_processed == 3
    assert sim.events_inline == 1


def test_try_advance_is_off_outside_run_and_rejects_the_past():
    sim = Simulator()
    assert not sim.try_advance(1.0)
    assert sim.now == 0.0
    sim.call_at(1.0, sim.try_advance, 0.5)
    with pytest.raises(SimulationError, match="past"):
        sim.run()
    assert sim.now == 1.0 and sim.events_inline == 0


def test_heap_entry_at_the_compute_end_runs_first():
    sim, rt, pool = _one_es()
    log = []
    rt.spawn(_computes(sim, log, 1.0, 1.0), pool)
    sim.call_at(1.0, log.append, ("heap", 1.0))
    sim.run()
    # The entry queued for t=1 has the smaller seq: it precedes the
    # compute that ends then.  The second compute ends with the heap
    # empty and completes in place.
    assert log == [("heap", 1.0), ("ult", 1.0), ("ult", 2.0)]
    assert sim.events_inline == 1


def test_run_until_never_advances_past_its_bound():
    sim, rt, pool = _one_es()
    log = []
    rt.spawn(_computes(sim, log, 1.0, 1.0, 1.0), pool)
    assert sim.run(until=1.5) == 1.5
    # The first compute ended inline within the bound; the second, which
    # ends past it, went to the heap.
    assert log == [("ult", 1.0)]
    assert sim.pending_events == 1
    refused = []
    sim.call_at(1.5, lambda: refused.append(sim.try_advance(2.5)))
    assert sim.run(until=2.0) == 2.0
    assert refused == [False]
    assert log == [("ult", 1.0), ("ult", 2.0)]
    sim.run()
    assert log == [("ult", 1.0), ("ult", 2.0), ("ult", 3.0)]


def test_max_events_and_run_until_step_through_the_heap():
    sim, rt, pool = _one_es()
    log = []
    rt.spawn(_computes(sim, log, 1.0, 1.0), pool)
    sim.run(max_events=2)  # the ES start, then the first compute's end
    assert log == [("ult", 1.0)]
    assert sim.now == 1.0 and sim.events_inline == 0

    sim, rt, pool = _one_es()
    log = []
    rt.spawn(_computes(sim, log, 1.0, 1.0), pool)
    # The predicate is checked after every event, so the run stops at
    # the first compute's end, not at the end of the chain.
    assert sim.run_until(lambda: len(log) == 1, limit=10.0)
    assert log == [("ult", 1.0)]
    assert sim.now == 1.0 and sim.events_inline == 0


def test_clock_keeps_the_inline_advance_when_the_queue_empties():
    sim, rt, pool = _one_es()
    log = []
    rt.spawn(_computes(sim, log, 2.0), pool)
    assert sim.run() == 2.0
    assert sim.now == 2.0 and sim.pending_events == 0
    assert sim.events_inline == 1

    sim = Simulator()

    def advance_then_stop():
        assert sim.try_advance(3.0)
        raise StopSimulation()

    sim.call_at(1.0, advance_then_stop)
    sim.call_at(4.0, lambda: None)
    assert sim.run(until=10.0) == 3.0
    assert sim.now == 3.0 and sim.events_processed == 2


def test_events_processed_counts_inline_completions(monkeypatch):
    def counts():
        sim, rt, pool = _one_es()
        log = []
        for _ in range(3):
            rt.spawn(_computes(sim, log, 0.5, 0.25), pool)
        sim.call_at(0.75, log.append, ("heap", 0.75))
        sim.run()
        return log, sim.now, sim.events_processed, sim.events_inline

    inline = counts()
    monkeypatch.setattr(Simulator, "try_advance", lambda self, when: False)
    heap_only = counts()
    assert inline[:3] == heap_only[:3]
    assert heap_only[3] == 0
    assert 0 < inline[3] < inline[2]
