"""Tests for ULT synchronization primitives: Eventual and AbtMutex."""

import pytest

from repro.argobots import AbtRuntime, Compute
from repro.sim import Simulator


def make_runtime(n_es=2, ctx_cost=0.0):
    sim = Simulator()
    rt = AbtRuntime(sim, ctx_switch_cost=ctx_cost)
    pool = rt.create_pool()
    for _ in range(n_es):
        rt.create_xstream(pool)
    return sim, rt, pool


# ---------------------------------------------------------------- Eventual


def test_eventual_wait_and_signal():
    sim, rt, pool = make_runtime()
    out = []
    ev = rt.eventual("gate")

    def real_waiter():
        value = yield from ev.wait()
        out.append((value, sim.now))

    def signaler():
        yield Compute(2.0)
        ev.signal("payload")

    rt.spawn(real_waiter(), pool)
    rt.spawn(signaler(), pool)
    sim.run(until=10.0)
    assert out == [("payload", 2.0)]


def test_eventual_wait_after_signal_is_immediate():
    sim, rt, pool = make_runtime()
    ev = rt.eventual()
    ev.signal(7)
    out = []

    def waiter():
        value = yield from ev.wait()
        out.append((value, sim.now))

    rt.spawn(waiter(), pool)
    sim.run(until=10.0)
    assert out == [(7, 0.0)]


def test_eventual_double_signal_raises():
    sim, rt, pool = make_runtime()
    ev = rt.eventual()
    ev.signal(1)
    with pytest.raises(RuntimeError):
        ev.signal(2)


def test_eventual_wakes_all_waiters():
    sim, rt, pool = make_runtime(n_es=4)
    ev = rt.eventual()
    out = []

    def waiter(tag):
        value = yield from ev.wait()
        out.append((tag, value))

    for tag in range(3):
        rt.spawn(waiter(tag), pool)

    def signaler():
        yield Compute(1.0)
        ev.signal("x")

    rt.spawn(signaler(), pool)
    sim.run(until=10.0)
    assert sorted(out) == [(0, "x"), (1, "x"), (2, "x")]


def test_eventual_wait_with_timeout_expires():
    sim, rt, pool = make_runtime()
    ev = rt.eventual()
    out = []

    def waiter():
        ok, value = yield from ev.wait(timeout=2.0)
        out.append((ok, value, sim.now))

    rt.spawn(waiter(), pool)
    sim.run(until=10.0)
    assert out == [(False, None, 2.0)]
    assert rt.num_blocked == 0


def test_eventual_wait_with_timeout_signaled_first():
    sim, rt, pool = make_runtime()
    ev = rt.eventual()
    out = []

    def waiter():
        ok, value = yield from ev.wait(timeout=5.0)
        out.append((ok, value, sim.now))

    def signaler():
        yield Compute(1.0)
        ev.signal("fast")

    rt.spawn(waiter(), pool)
    rt.spawn(signaler(), pool)
    sim.run(until=10.0)
    assert out == [(True, "fast", 1.0)]


def test_eventual_timeout_then_late_signal_is_safe():
    sim, rt, pool = make_runtime()
    ev = rt.eventual()
    out = []

    def waiter():
        ok, _ = yield from ev.wait(timeout=1.0)
        out.append(ok)
        yield Compute(5.0)
        out.append(ev.is_set)

    def late_signaler():
        yield Compute(3.0)
        ev.signal("late")

    rt.spawn(waiter(), pool)
    rt.spawn(late_signaler(), pool)
    sim.run(until=20.0)
    assert out == [False, True]


def test_eventual_wait_on_set_with_timeout_returns_ok():
    sim, rt, pool = make_runtime()
    ev = rt.eventual()
    ev.signal("already")
    out = []

    def waiter():
        ok, value = yield from ev.wait(timeout=9.0)
        out.append((ok, value))

    rt.spawn(waiter(), pool)
    sim.run(until=10.0)
    assert out == [(True, "already")]


def _queue_holds(sim):
    """What the event queue's entries hold directly: each callback's
    owner (a bound method's ``__self__``) and its arguments."""
    held = []
    for _, _, fn, args in sim._queue:
        held.append(getattr(fn, "__self__", fn))
        held.extend(args)
    return held


def test_timed_wait_signalled_first_leaves_no_eventual_in_the_queue():
    """The timeout entry of a wait that has ended stays in the queue
    (it fires as a no-op at the same instant), but holds only the ULT
    and its wait number."""
    sim, rt, pool = make_runtime()
    ev = rt.eventual()
    out = []

    def waiter():
        ok, value = yield from ev.wait(timeout=5.0)
        out.append((ok, value, sim.now))

    def signaler():
        yield Compute(1.0)
        ev.signal("fast")

    ult = rt.spawn(waiter(), pool)
    rt.spawn(signaler(), pool)
    sim.run(until=2.0)
    assert out == [(True, "fast", 1.0)]
    held = _queue_holds(sim)
    assert ult in held  # the entry is still queued ...
    assert not any(o is ev for o in held)  # ... and pins no eventual
    assert ult.waiting_on is None
    sim.run(until=10.0)  # the stale entry fires without effect
    assert out == [(True, "fast", 1.0)] and rt.num_blocked == 0


def test_stale_timeout_never_wakes_a_later_wait():
    """A timeout whose wait has ended does not wake the ULT from a later
    wait on another eventual, timed or not."""
    for later_timeout in (None, 50.0):
        sim, rt, pool = make_runtime()
        first, second = rt.eventual("first"), rt.eventual("second")
        out = []

        def waiter():
            ok, _ = yield from first.wait(timeout=5.0)
            out.append(("first", ok, sim.now))
            result = yield from second.wait(timeout=later_timeout)
            out.append(("second", result, sim.now))

        def signaler():
            yield Compute(1.0)
            first.signal()
            yield Compute(9.0)  # past the first wait's timeout at 5.0
            second.signal("late")

        rt.spawn(waiter(), pool)
        rt.spawn(signaler(), pool)
        sim.run(until=100.0)
        value = "late" if later_timeout is None else (True, "late")
        assert out == [("first", True, 1.0), ("second", value, 10.0)]
        assert rt.num_blocked == 0


# ---------------------------------------------------------------- AbtMutex


def test_mutex_serializes_ults():
    sim, rt, pool = make_runtime(n_es=4)
    m = rt.mutex("db")
    spans = []

    def writer(tag):
        yield from m.lock()
        start = sim.now
        yield Compute(1.0)
        m.unlock()
        spans.append((start, sim.now, tag))

    for tag in range(4):
        rt.spawn(writer(tag), pool)
    sim.run(until=20.0)
    spans.sort()
    # Strictly serialized despite 4 ESs.
    for (s1, e1, _), (s2, _, _) in zip(spans, spans[1:]):
        assert s2 >= e1
    assert sim.now >= 4.0


def test_mutex_fifo_handoff():
    sim, rt, pool = make_runtime(n_es=4)
    m = rt.mutex()
    order = []

    def holder():
        yield from m.lock()
        yield Compute(5.0)
        m.unlock()

    def waiter(tag, delay):
        yield Compute(delay)
        yield from m.lock()
        order.append(tag)
        m.unlock()

    rt.spawn(holder(), pool)
    rt.spawn(waiter("second", 2.0), pool)
    rt.spawn(waiter("first", 1.0), pool)
    sim.run(until=30.0)
    assert order == ["first", "second"]


def test_mutex_contention_watermark():
    sim, rt, pool = make_runtime(n_es=4)
    m = rt.mutex()

    def writer():
        yield from m.lock()
        yield Compute(1.0)
        m.unlock()

    for _ in range(4):
        rt.spawn(writer(), pool)
    sim.run(until=20.0)
    assert m.contention_high_watermark == 3


def test_mutex_unlock_unlocked_raises():
    sim, rt, pool = make_runtime()
    m = rt.mutex()
    with pytest.raises(RuntimeError):
        m.unlock()


def test_mutex_blocked_ults_counted():
    """ULTs queued on a mutex show up in num_blocked -- the Fig 10 signal."""
    sim, rt, pool = make_runtime(n_es=4)
    m = rt.mutex()
    samples = []

    def writer():
        yield from m.lock()
        yield Compute(1.0)
        m.unlock()

    def sampler():
        yield Compute(0.5)
        samples.append(rt.num_blocked)

    for _ in range(4):
        rt.spawn(writer(), pool)
    # sampler needs its own ES slot; give it a dedicated pool+ES
    sp = rt.create_pool("sampler")
    rt.create_xstream(sp)
    rt.spawn(sampler(), sp)
    sim.run(until=20.0)
    assert samples == [3]

