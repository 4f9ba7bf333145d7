"""Figure 13: SYMBIOSYS measurement overheads.

The data-loader workload is repeated 5 times at each instrumentation
stage (Baseline / Stage 1 / Stage 2 / Full Support) and once more per
repetition at Full Support with the online monitor attached.  Three
findings are reproduced:

* the *simulated* application timeline is bit-identical across stages --
  the instrumentation never perturbs the measured system;
* the real (wall-clock) cost of enabling instrumentation is modest and
  grows with the stage, which is this reproduction's analogue of the
  paper's "minimal overheads indistinguishable from run-to-run
  variation"; and
* always-on monitoring stays cheap: Full + monitor costs at most
  ``MAX_MONITOR_RATIO`` times the wall time of Full Support.  The study
  interleaves the arms repetition by repetition, so each repetition's
  Full + monitor run directly follows its Full Support run; the
  estimate is the median of those per-repetition ratios, which cancels
  machine drift between repetitions.
"""

import statistics

from repro.experiments import TABLE_IV, ascii_table, run_overhead_study
from repro.symbiosys import Stage
from repro.symbiosys.monitor import MonitorConfig
from .conftest import run_once

REPETITIONS = 9
EVENTS_PER_CLIENT = 512
# The paper's overhead study ran 224 clients / 32 servers on 128 nodes;
# we scale to C2's 32-client/4-server shape with a reduced event count.
CONFIG = TABLE_IV["C2"]
MAX_MONITOR_RATIO = 1.25
# One run lasts ~0.7 ms simulated, so the default 100 us interval takes
# only 8 samples and the ratio would barely weigh the sampler.  At
# 12.5 us it takes ~56, and a 4x costlier sample breaks the bound
# (docs/performance.md section 21).
MONITOR_INTERVAL = 12.5e-6


def _run():
    return run_overhead_study(
        config=CONFIG,
        repetitions=REPETITIONS,
        events_per_client=EVENTS_PER_CLIENT,
        monitoring=MonitorConfig(interval=MONITOR_INTERVAL),
    )


def test_fig13_overheads(benchmark, report):
    study = run_once(benchmark, _run)
    report.append(
        f"Figure 13: measurement overheads "
        f"({REPETITIONS} repetitions per stage, average reported)"
    )
    report.append(ascii_table(study.rows()))

    timings = study.timings
    # Simulated makespans identical across all stages: instrumentation
    # does not perturb the system under test.
    makespans = {
        stage: round(t.mean_makespan, 12) for stage, t in timings.items()
    }
    assert len(set(makespans.values())) == 1, makespans

    # Stages collect what they should.
    assert timings[Stage.OFF].trace_events == 0
    assert timings[Stage.STAGE1].trace_events == 0
    assert timings[Stage.STAGE2].trace_events > 0
    assert timings[Stage.FULL].trace_events >= timings[Stage.STAGE2].trace_events

    # Full-support wall-clock overhead stays within a sane envelope of
    # baseline (generous bound: 2x -- the paper's was within run noise).
    assert study.overhead_vs_baseline(Stage.FULL) < 1.0
    for stage in (Stage.STAGE1, Stage.STAGE2, Stage.FULL):
        benchmark.extra_info[f"overhead_{stage.name.lower()}"] = round(
            study.overhead_vs_baseline(stage), 4
        )

    # The monitor observes without perturbing the simulated run, and its
    # wall-clock cost over Full Support stays within the bound.
    assert study.monitoring_sim_overhead() == 0.0
    ratio = statistics.median(
        monitored / full
        for monitored, full in zip(
            study.monitored.wall_times, timings[Stage.FULL].wall_times
        )
    )
    benchmark.extra_info["monitor_ratio"] = round(ratio, 4)
    print(f"Full + monitor / Full Support, median paired wall ratio: "
          f"{ratio:.3f} (bound {MAX_MONITOR_RATIO})")
    assert ratio <= MAX_MONITOR_RATIO, (
        f"Full + monitor / Full Support median paired wall ratio = "
        f"{ratio:.3f} > {MAX_MONITOR_RATIO}"
    )
