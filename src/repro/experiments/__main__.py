"""Command-line experiment runner.

Usage::

    python -m repro.experiments list
    python -m repro.experiments table4
    python -m repro.experiments fig6 fig7
    python -m repro.experiments fig9 --events 4096
    python -m repro.experiments all

Each target regenerates one paper table/figure and prints the
paper-style rows (the same harnesses the benchmark suite asserts on).
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from .breakdown import run_breakdown_experiment
from .configs import TABLE_IV, table_iv_rows
from .hepnos import run_hepnos_experiment
from .mobject import run_mobject_experiment
from .monitor import run_monitor_experiment
from .overhead import run_overhead_study, time_analysis_scripts
from .reporting import ascii_table, format_seconds, series_histogram
from .runner import run_fault_campaigns
from .scale import run_scale_experiment, smoke_cell
from .sonata import run_sonata_experiment


def _fig5(args) -> None:
    result = run_mobject_experiment()
    request = result.write_op_trace()
    print("Figure 5: one mobject_write_op request")
    for i, name in enumerate(request.discrete_calls(), 1):
        print(f"  step {i:>2}: {name}")


def _fig6(args) -> None:
    result = run_mobject_experiment()
    print("Figure 6: dominant callpaths (ior + Mobject)")
    print(result.summary.render(top_n=5))


def _fig7(args) -> None:
    result = run_sonata_experiment(n_records=10_000, batch_size=1_000)
    print("Figure 7: Sonata target execution breakdown")
    b = result.target_execution_breakdown()
    total = b["target_execution_time"] + b["internal_rdma_transfer_time"]
    rows = [
        {"step": k, "time": format_seconds(v), "share": f"{100 * v / total:.1f}%"}
        for k, v in b.items() if k != "target_execution_time"
    ]
    print(ascii_table(rows))


def _fig9(args) -> None:
    rows = []
    for name in ("C1", "C2"):
        r = run_hepnos_experiment(TABLE_IV[name], events_per_client=args.events)
        rows.append({
            "config": name,
            "threads": r.config.threads,
            "cumulative target RPC time": format_seconds(r.cumulative_target_time),
            "handler share": f"{100 * r.handler_time_fraction:.1f}%",
        })
    print("Figure 9: too few execution streams")
    print(ascii_table(rows))


def _fig10(args) -> None:
    rows = []
    for name in ("C2", "C3"):
        r = run_hepnos_experiment(TABLE_IV[name], events_per_client=args.events)
        blocked = np.array([b for _, b, _ in r.blocked_samples()])
        rows.append({
            "config": name,
            "databases": r.config.databases,
            "RPCs": r.rpcs_issued,
            "blocked max": int(blocked.max()),
            "cumulative target RPC time": format_seconds(r.cumulative_target_time),
        })
    print("Figure 10: too many databases")
    print(ascii_table(rows))


def _fig11(args) -> None:
    rows = []
    for name in ("C4", "C5", "C6", "C7"):
        r = run_hepnos_experiment(
            TABLE_IV[name], events_per_client=args.events,
            pipeline_width=64 if TABLE_IV[name].batch_size == 1 else 32,
        )
        rows.append({
            "config": name,
            "batch": r.config.batch_size,
            "cumulative RPC time": format_seconds(r.cumulative_origin_time),
            "unaccounted": f"{100 * r.unaccounted_fraction:.1f}%",
        })
    print("Figure 11: unaccounted component of RPC execution time")
    print(ascii_table(rows))


def _fig12(args) -> None:
    print("Figure 12: num_ofi_events_read samples")
    for name in ("C4", "C5", "C6", "C7"):
        r = run_hepnos_experiment(
            TABLE_IV[name], events_per_client=args.events,
            pipeline_width=64 if TABLE_IV[name].batch_size == 1 else 32,
        )
        series = [v for _, v in r.ofi_series()]
        print(series_histogram(
            series, bins=[4, 16, 64],
            label=f"{name} (cap {r.config.ofi_max_events})",
        ))


def _fig13(args) -> None:
    study = run_overhead_study(
        repetitions=args.reps, events_per_client=min(args.events, 512),
        jobs=args.jobs,
    )
    print("Figure 13: measurement overheads")
    print(ascii_table(study.rows()))


def _overhead(args) -> None:
    # The deterministic view of the overhead study: only simulated
    # quantities, so the output is byte-identical for any --jobs value
    # (the CI determinism gate diffs --jobs 1 against --jobs 4).
    study = run_overhead_study(
        repetitions=args.reps, events_per_client=min(args.events, 512),
        jobs=args.jobs,
    )
    if args.store:
        from ..store import record_overhead_study

        run_id = record_overhead_study(args.store, study, seed=args.seed)
        # Store chatter goes to stderr; stdout feeds the CI diff gate.
        print(f"[recorded run {run_id} into {args.store}]", file=sys.stderr)
    print("Overhead study: simulated quantities per stage")
    rows = [
        {
            "stage": row["stage"],
            "mean_sim_makespan": format_seconds(row["mean_sim_makespan_s"]),
            "trace_events": row["trace_events"],
        }
        for row in study.rows()
    ]
    print(ascii_table(rows))


def _faults(args) -> None:
    seeds = range(args.seed, args.seed + args.seeds)
    results = run_fault_campaigns(seeds, jobs=args.jobs)
    print("Fault campaign: Sonata under injected faults")
    for i, result in enumerate(results):
        if i:
            print()
        print(result.report())


def _monitor(args) -> None:
    # The smoke shape still spans the fault window (crash at 0.8 ms), so
    # both the starvation and timeout-burst detectors get exercised.
    kw = {"n_records": 600, "batch_size": 50} if args.smoke else {}
    result = run_monitor_experiment(
        seed=args.seed, out_dir=args.out, store=args.store, **kw
    )
    print("Monitored campaign: online telemetry under injected faults")
    print(result.report())
    if args.out:
        print(f"artifacts written to {args.out}/")
    if args.store:
        print(f"[run recorded into {args.store}]", file=sys.stderr)


def _breakdown(args) -> None:
    # Fig 11-12 through the critical-path engine: per-request latency
    # decomposition with the sum-to-total invariant machine-checked.
    kw = {"events_per_client": 96, "configs": ("C4", "C5")} \
        if args.smoke else {}
    result = run_breakdown_experiment(
        seed=args.seed, store=args.store, out_dir=args.out, **kw
    )
    print(result.report())
    if args.out:
        print(f"artifacts written to {args.out}/")
    if args.store:
        print(f"[runs recorded into {args.store}]", file=sys.stderr)
    result.check_invariants()
    if not result.fig11_check():
        raise SystemExit("fig11 check failed: batch-1 regime did not "
                         "wait more on the completion queue")


def _scale(args) -> None:
    # Sharded services at cluster scale: consistent-hash placement,
    # membership churn, and monitor-triggered migration, swept over the
    # mubench-style topology x scale x load matrix (--smoke: one
    # 32-server cell).  check_invariants() is the acceptance gate: the
    # injected death must yield a view change plus completed failover,
    # the hot shard a rebalance, and the churn audit must conserve data.
    cells = [smoke_cell()] if args.smoke else None
    result = run_scale_experiment(
        seed=args.seed, cells=cells, store=args.store, out_dir=args.out
    )
    print("Sharded services at cluster scale")
    print(result.report())
    if args.out:
        print(f"artifacts written to {args.out}/")
    if args.store:
        print(f"[runs recorded into {args.store}]", file=sys.stderr)
    result.check_invariants()


def _table4(args) -> None:
    print("Table IV: HEPnOS service configurations")
    print(ascii_table(table_iv_rows()))


def _table5(args) -> None:
    result = run_hepnos_experiment(TABLE_IV["C2"], events_per_client=args.events)
    timings = time_analysis_scripts(result)
    print("Table V: analysis overheads")
    print(ascii_table(timings.rows()))


TARGETS = {
    "fig5": _fig5,
    "fig6": _fig6,
    "fig7": _fig7,
    "fig9": _fig9,
    "fig10": _fig10,
    "fig11": _fig11,
    "fig12": _fig12,
    "fig13": _fig13,
    "overhead": _overhead,
    "table4": _table4,
    "table5": _table5,
    "faults": _faults,
    "monitor": _monitor,
    "breakdown": _breakdown,
    "scale": _scale,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "targets", nargs="+",
        help=f"one or more of: {', '.join(TARGETS)}, all, list",
    )
    parser.add_argument("--events", type=int, default=2048,
                        help="events per client for HEPnOS runs")
    parser.add_argument("--reps", type=int, default=5,
                        help="repetitions for the overhead study")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the fault/monitor campaigns")
    parser.add_argument("--seeds", type=int, default=1,
                        help="number of consecutive seeds for the faults "
                             "target (a multi-seed campaign)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for fannable targets "
                             "(overhead, fig13, faults)")
    parser.add_argument("--smoke", action="store_true",
                        help="reduced workload for CI smoke runs")
    parser.add_argument("--out", default=None,
                        help="artifact output directory for the monitor target")
    parser.add_argument("--store", default=None,
                        help="performance-store .db path; the monitor and "
                             "overhead targets archive their runs into it "
                             "(query with python -m repro.analysis)")
    args = parser.parse_args(argv)

    if args.targets == ["list"]:
        for name in TARGETS:
            print(name)
        return 0
    targets = list(TARGETS) if args.targets == ["all"] else args.targets
    unknown = [t for t in targets if t not in TARGETS]
    if unknown:
        parser.error(f"unknown targets: {', '.join(unknown)}")
    for i, target in enumerate(targets):
        if i:
            print()
        t0 = time.perf_counter()
        TARGETS[target](args)
        # Timing goes to stderr: stdout stays byte-identical across runs
        # (and across --jobs values), so determinism gates can diff it.
        print(
            f"[{target} done in {time.perf_counter() - t0:.1f}s]",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
