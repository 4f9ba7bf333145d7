"""Tests for the two-level ULT / execution-stream scheduler."""

import pytest

from repro.argobots import AbtRuntime, Compute, UltState, YieldNow
from repro.sim import Simulator


def make_runtime(n_es=1, ctx_cost=0.0, **kw):
    sim = Simulator()
    rt = AbtRuntime(sim, ctx_switch_cost=ctx_cost, **kw)
    pool = rt.create_pool("p0")
    for _ in range(n_es):
        rt.create_xstream(pool)
    return sim, rt, pool


def test_single_ult_runs_to_completion():
    sim, rt, pool = make_runtime()
    log = []

    def body():
        log.append(("start", sim.now))
        yield Compute(2.0)
        log.append(("end", sim.now))
        return "ok"

    ult = rt.spawn(body(), pool, name="worker")
    sim.run(until=10.0)
    assert log == [("start", 0.0), ("end", 2.0)]
    assert ult.terminated
    assert ult.result == "ok"
    assert ult.finished_at == 2.0


def test_compute_occupies_es_serially():
    """One ES: ULTs run one after another (no preemption)."""
    sim, rt, pool = make_runtime(n_es=1)
    spans = []

    def body(tag):
        start = sim.now
        yield Compute(1.0)
        spans.append((tag, start, sim.now))

    for tag in range(3):
        rt.spawn(body(tag), pool)
    sim.run(until=10.0)
    assert spans == [(0, 0.0, 1.0), (1, 1.0, 2.0), (2, 2.0, 3.0)]


def test_multiple_es_run_in_parallel():
    sim, rt, pool = make_runtime(n_es=3)
    ends = []

    def body():
        yield Compute(1.0)
        ends.append(sim.now)

    for _ in range(3):
        rt.spawn(body(), pool)
    sim.run(until=10.0)
    assert ends == [1.0, 1.0, 1.0]


def test_queueing_delay_with_insufficient_es():
    """6 unit-length ULTs on 2 ESs finish in 3 time units: queueing delay
    (the paper's 'target handler time') emerges from the pool."""
    sim, rt, pool = make_runtime(n_es=2)

    def body():
        yield Compute(1.0)

    ults = [rt.spawn(body(), pool) for _ in range(6)]
    sim.run(until=10.0)
    assert sim.now >= 3.0
    waits = [u.started_at - u.created_at for u in ults]
    # First two dispatch immediately; later ones wait ~1s and ~2s.
    assert waits[0] == 0.0 and waits[1] == 0.0
    assert waits[4] == pytest.approx(2.0)
    assert waits[5] == pytest.approx(2.0)


def test_yield_now_round_robins():
    sim, rt, pool = make_runtime(n_es=1)
    order = []

    def body(tag):
        for step in range(2):
            order.append((tag, step))
            yield YieldNow()

    rt.spawn(body("a"), pool)
    rt.spawn(body("b"), pool)
    sim.run(until=10.0)
    assert order == [("a", 0), ("b", 0), ("a", 1), ("b", 1)]


def test_context_switch_cost_advances_time():
    sim, rt, pool = make_runtime(n_es=1, ctx_cost=0.1)
    ticks = []

    def body():
        for _ in range(3):
            ticks.append(sim.now)
            yield YieldNow()

    rt.spawn(body(), pool)
    sim.run(until=10.0)
    # Each dispatch costs 0.1, so resumes are strictly spaced.
    assert ticks == pytest.approx([0.1, 0.2, 0.3])


def test_es_busy_time_accounting():
    sim, rt, pool = make_runtime(n_es=1)
    es = rt.xstreams[0]

    def body():
        yield Compute(2.5)

    rt.spawn(body(), pool)
    sim.run(until=10.0)
    assert es.busy_time == pytest.approx(2.5)
    # The stream's busy time is its slot in the runtime's list.
    assert rt.es_busy == [es.busy_time]
    assert rt.num_ready == rt.num_running == 0


def test_ult_error_propagates_by_default():
    sim, rt, pool = make_runtime()

    def bad():
        yield Compute(1.0)
        raise ValueError("broken handler")

    slices = []

    class Recorder:
        def on_slice(self, es, ult, start, end):
            slices.append((start, end))

    rt.add_sched_observer(Recorder())
    rt.spawn(bad(), pool)
    with pytest.raises(ValueError, match="broken handler"):
        sim.run(until=10.0)
    # The failing slice is still reported, once, and the ES stops.
    assert slices == [(0.0, 1.0)]
    assert rt.xstreams[0].current is None
    assert sim.pending_events == 0


def test_ult_error_swallowed_when_configured():
    sim, rt, pool = make_runtime(swallow_ult_errors=True)

    def bad():
        yield Compute(1.0)
        raise ValueError("broken handler")

    ult = rt.spawn(bad(), pool)
    sim.run(until=10.0)
    assert ult.terminated
    assert isinstance(ult.error, ValueError)


def test_join_returns_result():
    sim, rt, pool = make_runtime(n_es=2)
    out = []

    def child():
        yield Compute(3.0)
        return 42

    def parent():
        c = rt.spawn(child(), pool)
        value = yield from rt.join(c)
        out.append((value, sim.now))

    rt.spawn(parent(), pool)
    sim.run(until=10.0)
    assert out == [(42, 3.0)]


def test_join_already_terminated():
    sim, rt, pool = make_runtime(n_es=1)
    out = []

    def child():
        yield Compute(1.0)
        return "early"

    c = rt.spawn(child(), pool)

    def parent():
        yield Compute(5.0)
        value = yield from rt.join(c)
        out.append((value, sim.now))

    rt.spawn(parent(), pool)
    sim.run(until=20.0)
    assert out == [("early", 6.0)]


def test_join_reraises_child_error():
    sim, rt, pool = make_runtime(n_es=2, swallow_ult_errors=True)
    caught = []

    def child():
        yield Compute(1.0)
        raise RuntimeError("child died")

    def parent():
        c = rt.spawn(child(), pool)
        try:
            yield from rt.join(c)
        except RuntimeError as exc:
            caught.append(str(exc))

    rt.spawn(parent(), pool)
    sim.run(until=10.0)
    assert caught == ["child died"]


def test_join_all_collects_in_order():
    sim, rt, pool = make_runtime(n_es=4)
    out = []

    def child(tag, dur):
        yield Compute(dur)
        return tag

    def parent():
        kids = [rt.spawn(child(t, 3.0 - t), pool) for t in range(3)]
        results = yield from rt.join_all(kids)
        out.append(results)

    rt.spawn(parent(), pool)
    sim.run(until=10.0)
    assert out == [[0, 1, 2]]


def test_spawn_counters():
    sim, rt, pool = make_runtime(n_es=1)

    def body():
        yield Compute(1.0)

    for _ in range(4):
        rt.spawn(body(), pool)
    assert rt.total_spawned == 4
    assert rt.num_active == 4
    sim.run(until=10.0)
    assert rt.total_finished == 4
    assert rt.num_active == 0


def test_pool_high_watermark():
    sim, rt, pool = make_runtime(n_es=1)

    def body():
        yield Compute(1.0)

    for _ in range(5):
        rt.spawn(body(), pool)
    assert pool.high_watermark == 5


def test_shutdown_stops_idle_es():
    sim, rt, pool = make_runtime(n_es=2)

    def body():
        yield Compute(1.0)

    rt.spawn(body(), pool)
    sim.run(until=5.0)
    rt.shutdown()
    sim.run()
    # All ES kernel tasks finished; no pending events remain.
    assert sim.pending_events == 0


def test_ult_local_storage():
    sim, rt, pool = make_runtime(n_es=1)
    seen = []

    def body():
        me = rt.self_ult()
        me.local["callpath"] = 0xBEEF
        yield Compute(1.0)
        seen.append(rt.self_ult().local["callpath"])

    rt.spawn(body(), pool)
    sim.run(until=10.0)
    assert seen == [0xBEEF]


def test_self_ult_is_none_outside_execution():
    sim, rt, pool = make_runtime()
    assert rt.self_ult() is None


def test_num_ready_and_blocked_counters():
    sim, rt, pool = make_runtime(n_es=1)
    ev = rt.eventual()
    snap = {}

    def blocker():
        yield from ev.wait()

    def observer():
        yield Compute(1.0)
        snap["blocked"] = rt.num_blocked
        ev.signal("go")
        yield Compute(1.0)
        snap["after"] = rt.num_blocked

    rt.spawn(blocker(), pool)
    rt.spawn(observer(), pool)
    sim.run(until=10.0)
    assert snap["blocked"] == 1
    assert snap["after"] == 0


def test_parked_es_leaves_nothing_behind():
    """An idle ES parks on its pool with one resume callback: a thousand
    park/wake cycles never pile up waiters, shutdown wakes every parked
    ES without re-parking it, and a ULT spawned afterwards stays READY."""
    sim, rt, pool = make_runtime(n_es=2)

    def body():
        yield Compute(1e-6)

    for _ in range(1000):
        rt.spawn(body(), pool)
        sim.run()
        assert len(pool._waiters) == len(rt.xstreams)
    assert rt.total_finished == 1000
    rt.shutdown()
    sim.run()
    assert not pool._waiters
    assert sim.pending_events == 0
    late = rt.spawn(body(), pool)
    sim.run()
    assert late.state is UltState.READY
    assert sim.pending_events == 0


def test_es_switch_window_and_event_accounting():
    """One ES with a context-switch cost runs a fixed script: Compute,
    block until an outside signal, YieldNow.  Pins the switch window, the
    slice bounds, busy_time and the exact kernel callback count."""
    cost = 0.25
    sim, rt, pool = make_runtime(n_es=1, ctx_cost=cost)
    ev = rt.eventual()
    slices = []
    probes = []

    class Recorder:
        def on_slice(self, es, ult, start, end):
            slices.append((start, end))

    rt.add_sched_observer(Recorder())

    def body():
        yield Compute(1.0)
        got = yield from ev.wait()
        yield YieldNow()
        return got

    ult = rt.spawn(body(), pool)

    def probe():
        probes.append((sim.now, rt.num_running, ult.state))

    sim.call_at(cost / 2, probe)  # inside the first switch window
    sim.call_at(2.0, ev.signal, "go")  # the ES is parked by then
    sim.call_at(2.0 + cost / 2, probe)  # inside the switch after the wake
    sim.run()

    assert ult.result == "go"
    assert probes == [
        (cost / 2, 0, UltState.READY),
        (2.0 + cost / 2, 0, UltState.READY),
    ]
    # Each slice starts when its ULT is popped, before the switch.
    assert slices == [(0.0, 1.0 + cost), (2.0, 2.0 + cost), (2.0 + cost, 2.0 + 2 * cost)]
    switches = len(slices)
    assert rt.xstreams[0].busy_time == switches * cost + 1.0
    es_start, computes, wakes = 1, 1, 1
    scheduled_here = len(probes) + 1  # the probes and the signal
    assert sim.events_processed == (
        es_start + switches + computes + wakes + scheduled_here
    )
