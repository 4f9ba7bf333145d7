"""One benchmark repeat, run in a fresh interpreter.

    python -m perfbench.child WORKLOAD SEED SIZE [--profile]

Imports are warmed first.  The repeat is then split into phases by
wrapping :meth:`repro.sim.engine.Simulator.run`, which every wait
(``run_until_event``, ``run_until``, ``Cluster.run``, the shutdown
drain) goes through: the time before its first entry is *setup*, the
time inside it is *run*, and the time after its last exit is *report*.
A fixed spin loop is timed just before and just after the repeat so the
caller can normalise the timings to a reference machine.  With
``--profile`` the repeat runs under cProfile and the profile is folded
into layers (:mod:`perfbench.layers`).

Prints one JSON object on the last line of standard output.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time

#: Iterations of the calibration spin loop; fixed, so that calibrations
#: taken on different days and machines stay comparable.
SPIN_ITERATIONS = 2_000_000


def spin() -> float:
    """Seconds to run a fixed pure-Python accumulation loop."""
    acc = 0
    t0 = time.perf_counter()
    for i in range(SPIN_ITERATIONS):
        acc += i
    return time.perf_counter() - t0


class PhaseClock:
    """Wraps ``Simulator.run`` to time the phases of one repeat."""

    def __init__(self) -> None:
        self.first_entry: float | None = None
        self.last_exit: float | None = None
        self.inside = 0.0
        self.events = 0
        self._original = None

    def install(self) -> None:
        from repro.sim.engine import Simulator

        original = self._original = Simulator.run
        clock = self
        perf_counter = time.perf_counter

        def run(sim, *args, **kwargs):
            before = sim.events_processed
            t0 = perf_counter()
            if clock.first_entry is None:
                clock.first_entry = t0
            try:
                return original(sim, *args, **kwargs)
            finally:
                t1 = perf_counter()
                clock.inside += t1 - t0
                clock.last_exit = t1
                clock.events += sim.events_processed - before

        Simulator.run = run

    def uninstall(self) -> None:
        from repro.sim.engine import Simulator

        Simulator.run = self._original


def run_repeat(workload: str, seed: int, size: str, profile: bool) -> dict:
    """Run one repeat in this process and describe it as a dict."""
    from perfbench.workloads import WORKLOADS

    fn = WORKLOADS[workload]
    clock = PhaseClock()
    clock.install()
    profiler = None
    if profile:
        import cProfile

        profiler = cProfile.Profile()
    gc.collect()
    cal_before = spin()
    start = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    try:
        outcome = fn(seed, size)
    finally:
        if profiler is not None:
            profiler.disable()
        end = time.perf_counter()
        clock.uninstall()
    cal_after = spin()
    if clock.first_entry is None:
        raise RuntimeError(f"{workload} never entered Simulator.run")
    outputs = dict(outcome.outputs, sim_events=clock.events)
    record = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "outputs": outputs,
        "sim_events": clock.events,
        "wall_s": end - start,
        "setup_s": clock.first_entry - start,
        "run_s": clock.inside,
        "report_s": end - clock.last_exit,
        "calibration_s": [cal_before, cal_after],
        # Linux reports ru_maxrss in KiB.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if profiler is not None:
        from perfbench.layers import fold_profile

        record["layers"] = fold_profile(profiler)
    return record


def main(argv: list[str]) -> int:
    if len(argv) not in (3, 4) or (len(argv) == 4 and argv[3] != "--profile"):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    workload, seed, size = argv[0], int(argv[1]), argv[2]
    record = run_repeat(workload, seed, size, profile=len(argv) == 4)
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
