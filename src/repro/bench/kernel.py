"""Kernel microbenchmarks: the simulator's per-event hot paths.

Each benchmark isolates one kernel mechanism the stack leans on:

* ``event_churn`` -- heap-ordered timer chains at mixed delays (the
  fabric / progress-loop pattern).
* ``fast_lane`` -- same-instant ``call_at(sim.now, ...)`` cascades (the
  event-fire / task-resume / spawn pattern, the dominant case).
* ``spawn_resume`` -- generator tasks stepping through zero-delay
  yields (the ULT dispatch pattern).
* ``anyof`` -- first-of-several waits with a losing timeout branch (the
  pool-wait / shutdown-race pattern).
* ``rpc_round_trip`` -- a full Margo echo RPC through fabric, Mercury,
  and Argobots; the whole-stack per-RPC wall cost.

Every benchmark builds a fresh world per repeat and returns the number
of processed work units, so results read as events/sec or RPCs/sec.
"""

from __future__ import annotations

from typing import Callable

from ..sim import AnyOf, Simulator, Timeout
from .harness import BenchResult, SuiteResult, time_bench
from .instr import INSTR_BENCHMARKS

__all__ = ["KERNEL_BENCHMARKS", "run_kernel_benchmarks"]


def bench_event_churn(n_events: int) -> tuple[int, str]:
    sim = Simulator()
    count = [0]

    def tick(delay: float) -> None:
        count[0] += 1
        if count[0] < n_events:
            sim.call_after(delay, tick, delay)

    # Four interleaved chains at co-prime delays keep the heap busy.
    for delay in (1e-6, 3e-6, 7e-6, 13e-6):
        sim.call_after(delay, tick, delay)
    sim.run()
    return count[0], "events"


def bench_fast_lane(n_events: int) -> tuple[int, str]:
    sim = Simulator()
    remaining = [n_events]

    def hop() -> None:
        remaining[0] -= 1
        if remaining[0] > 0:
            sim.call_at(sim.now, hop)

    sim.call_at(0.0, hop)
    sim.run()
    return n_events, "events"


def bench_spawn_resume(n_tasks: int, n_steps: int) -> tuple[int, str]:
    sim = Simulator()

    def body():
        for _ in range(n_steps):
            yield Timeout(0.0)

    for _ in range(n_tasks):
        sim.spawn(body())
    sim.run()
    return n_tasks * n_steps, "resumes"


def bench_anyof(n_waits: int) -> tuple[int, str]:
    sim = Simulator()

    def body():
        for i in range(n_waits):
            ev = sim.event()
            sim.call_after(1e-6, ev.succeed, i)
            # The event wins; the Timeout branch stays queued and fires
            # later as a loser no-op.
            idx, _ = yield AnyOf([ev, Timeout(5e-6)])
            assert idx == 0

    sim.spawn(body())
    sim.run()
    return n_waits, "waits"


def _echo_handler(mi, handle):
    inp = yield from mi.get_input(handle)
    yield from mi.respond(handle, {"n": inp["n"]})


def bench_rpc_round_trip(n_rpcs: int) -> tuple[int, str]:
    from ..cluster import Cluster

    with Cluster(stage=None) as cluster:
        server = cluster.process("svr", "nodeS", n_handler_es=1)
        server.register("echo", _echo_handler)
        client = cluster.process("cli", "nodeC")
        client.register("echo")
        done = cluster.sim.event("bench-done")

        def body():
            for i in range(n_rpcs):
                yield from client.forward("svr", "echo", {"n": i})
            done.succeed(cluster.sim.now)

        client.client_ult(body(), name="bench-rpc")
        if not _wait(cluster, done, limit=600.0):
            raise RuntimeError("rpc benchmark did not finish")
    return n_rpcs, "rpcs"


def _wait(cluster, event, limit: float) -> bool:
    """Event-driven wait, falling back to the predicate API on kernels
    that predate ``run_until_event`` (keeps the suite runnable against
    older revisions for trajectory comparisons)."""
    waiter = getattr(cluster, "run_until_event", None)
    if waiter is not None:
        return waiter(event, limit)
    return cluster.run_until(lambda: event.fired, limit)


#: name -> (full-scale thunk, smoke-scale thunk)
KERNEL_BENCHMARKS: dict[str, tuple[Callable, Callable]] = {
    "event_churn": (
        lambda: bench_event_churn(200_000),
        lambda: bench_event_churn(20_000),
    ),
    "fast_lane": (
        lambda: bench_fast_lane(200_000),
        lambda: bench_fast_lane(20_000),
    ),
    "spawn_resume": (
        lambda: bench_spawn_resume(2_000, 50),
        lambda: bench_spawn_resume(400, 25),
    ),
    "anyof": (
        lambda: bench_anyof(50_000),
        lambda: bench_anyof(5_000),
    ),
    "rpc_round_trip": (
        lambda: bench_rpc_round_trip(2_000),
        lambda: bench_rpc_round_trip(200),
    ),
    # The instrumentation hot paths ride along in this suite so their
    # results land in BENCH_kernel.json and the same --check gate.
    **INSTR_BENCHMARKS,
}


def run_kernel_benchmarks(
    *,
    repeats: int = 5,
    smoke: bool = False,
    log: Callable[[str], None] = lambda s: None,
) -> SuiteResult:
    results: list[BenchResult] = []
    for name, (full, small) in KERNEL_BENCHMARKS.items():
        log(f"kernel/{name}:")
        results.append(time_bench(name, small if smoke else full, repeats, log))
    return SuiteResult(suite="kernel", results=results)
