"""A compute that completes in place is indistinguishable from one that
rides the heap.

Random ULT programs on several execution streams -- computes, eventual
waits (timed or not) and signals, sleeps, yields, and probes reading the
clock and the ES busy times -- run twice: as shipped, and with
``Simulator.try_advance`` forced to refuse, so every ``Compute`` goes
through a ``_computed`` heap entry.  Everything observable must match:
the ULTs' log, every run slice, the ULT records and the kernel's counts.

Durations sit on a quarter grid, so compute ends often coincide with
queued events: the case where the heap entry must run first.
"""

from hypothesis import event, given, settings, strategies as st

import pytest

from repro.argobots import AbtRuntime, Compute, YieldNow
from repro.sim import Simulator

N_EVENTUALS = 3
GRID = (0.0, 0.25, 0.5, 1.0)

_computes = st.tuples(st.just("compute"), st.sampled_from(GRID))
_ops = st.one_of(
    _computes,
    _computes,  # twice the weight: computes are what the path is about
    st.tuples(
        st.just("wait"),
        st.integers(0, N_EVENTUALS - 1),
        st.sampled_from((None, 0.5, 1.0)),
    ),
    st.tuples(st.just("signal"), st.integers(0, N_EVENTUALS - 1)),
    st.tuples(st.just("sleep"), st.sampled_from(GRID[1:])),
    st.just(("yield",)),
    st.just(("probe",)),
)

_ults = st.tuples(
    st.integers(0, 1),  # pool
    st.sampled_from((0.0, 0.0, 0.5, 1.0)),  # spawn time
    st.lists(_ops, min_size=1, max_size=8),
)

_specs = st.fixed_dictionaries(
    {
        "switch_cost": st.sampled_from((0.0, 0.25, 0.1)),
        "es_per_pool": st.tuples(st.integers(1, 2), st.integers(0, 2)),
        "ults": st.lists(_ults, min_size=1, max_size=6),
        "outside": st.lists(
            st.tuples(st.sampled_from((0.5, 1.0, 1.25, 2.0)),
                      st.integers(0, N_EVENTUALS - 1)),
            max_size=3,
        ),
        "first_until": st.sampled_from((None, 0.75, 1.0, 2.0)),
    }
)


def _simulate(spec):
    sim = Simulator()
    rt = AbtRuntime(sim, ctx_switch_cost=spec["switch_cost"])
    pools = [rt.create_pool(f"p{i}") for i in range(2)]
    for pool, n_es in zip(pools, spec["es_per_pool"]):
        for _ in range(n_es):
            rt.create_xstream(pool)
    eventuals = [rt.eventual(f"e{i}") for i in range(N_EVENTUALS)]
    log = []
    slices = []

    class Recorder:
        def on_slice(self, es, ult, start, end):
            busy = es.runtime.es_busy[es._busy_slot]
            slices.append((es.name, ult.name, start, end, busy))

    rt.add_sched_observer(Recorder())

    def signal(index, by):
        if not eventuals[index].is_set:
            eventuals[index].signal(by)
        log.append(("signal", by, index, sim.now))

    def body(name, ops):
        for step, op in enumerate(ops):
            kind = op[0]
            if kind == "compute":
                yield Compute(op[1])
            elif kind == "wait":
                got = yield from eventuals[op[1]].wait(op[2])
                log.append((name, step, "woke", got, sim.now))
            elif kind == "signal":
                signal(op[1], name)
            elif kind == "sleep":
                yield from rt.sleep(op[1])
            elif kind == "yield":
                yield YieldNow()
            else:
                log.append((
                    name, step, "probe", sim.now, tuple(rt.es_busy),
                    rt.num_running, rt.num_ready, rt.num_blocked,
                ))
        return name

    ults = []
    # A pool with no ES never runs its ULTs; they stay READY in both runs.
    for i, (pool, at, ops) in enumerate(spec["ults"]):
        name = f"u{i}"
        sim.call_at(
            at, lambda n=name, p=pools[pool], o=ops: ults.append(
                rt.spawn(body(n, o), p, name=n)
            ),
        )
    for at, index in spec["outside"]:
        sim.call_at(at, signal, index, "outside")

    if spec["first_until"] is not None:
        sim.run(until=spec["first_until"])
        log.append(("paused", sim.now))
    sim.run()
    records = [
        (u.name, u.state, u.started_at, u.finished_at, u.result) for u in ults
    ]
    counts = (
        sim.now, sim.events_processed, sim.pending_events, tuple(rt.es_busy),
        rt.num_ready, rt.num_running, rt.num_blocked,
    )
    return log, slices, records, counts, sim.events_inline


@settings(max_examples=150, deadline=None)
@given(_specs)
def test_inline_computes_match_the_heap_path(spec):
    log, slices, records, counts, inline = _simulate(spec)
    event("some compute ran inline" if inline else "no compute ran inline")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Simulator, "try_advance", lambda self, when: False)
        heap = _simulate(spec)
    assert heap[4] == 0
    assert (log, slices, records, counts) == heap[:4]


def test_the_programs_reach_the_inline_path():
    spec = {
        "switch_cost": 0.0,
        "es_per_pool": (1, 0),
        "ults": [(0, 0.0, [("compute", 0.5), ("probe",), ("compute", 0.25)])],
        "outside": [(0.5, 0)],
        "first_until": None,
    }
    log, slices, records, counts, inline = _simulate(spec)
    # The first compute ends with the outside signal: through the heap.
    # The second ends with the heap empty: in place.
    assert inline == 1
    assert log[0] == ("signal", "outside", 0, 0.5)
    assert log[1][:4] == ("u0", 1, "probe", 0.5)
    assert counts[0] == 0.75
