"""Command line of the benchmark.

Whole suite (every workload, ``--repeats`` untraced repeats and one
traced repeat each; prints every metric with its unit)::

    python -m perfbench [--seed N] [--repeats N] [--out FILE]

One workload for a fixed time, ending with one JSON result line (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``)::

    python -m perfbench --workload NAME --seed N --seconds S --trace 0|1

Compare two ``--out`` files, one row per workload and end-to-end metric::

    python -m perfbench compare PARENT.json CHANGE.json

Exit status: 0 when every output checked out, 1 when an op failed or an
output differed from the recorded one, 2 when the benchmark could not
run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys

from perfbench import bench
from perfbench.bench import E2E_METRICS, LAYER_METRICS, WORKLOAD_NAMES


def machine() -> dict:
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m perfbench",
        description="Benchmark the simulated Mochi stack on four paper workloads.",
    )
    p.add_argument(
        "--workload", action="append", choices=WORKLOAD_NAMES,
        help="workload to run (repeatable; default: all)",
    )
    p.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    how = p.add_mutually_exclusive_group()
    how.add_argument(
        "--repeats", type=int, default=None,
        help="untraced repeats per workload (default 5)",
    )
    how.add_argument(
        "--seconds", type=float, default=None,
        help="measure each workload for this long instead",
    )
    p.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="print one JSON result line: end-to-end metrics (0) or "
        "per-layer metrics from a traced repeat (1)",
    )
    p.add_argument("--out", help="write every sample to this JSON file")
    p.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="workload shape; tiny is the self-test shape",
    )
    return p


def _result_line(run: dict, trace: bool) -> dict:
    if trace:
        values = bench.layer_values(run)
        metrics = {m.name: {"value": values[m.name], "unit": m.unit}
                   for m in LAYER_METRICS}
    else:
        samples = bench.e2e_values(run)
        metrics = {
            m.name: {"value": bench.quartiles(samples[m.name])[1], "unit": m.unit}
            for m in E2E_METRICS
        }
    return {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }


def _print_report(run: dict) -> None:
    samples = bench.e2e_values(run)
    raw = {
        key: statistics.median(r[key] for r in run["repeats"])
        for key in ("setup_s", "run_s")
    }
    n = len(run["repeats"])
    print(
        f"{run['workload']}  seed={run['seed']}  repeats={n}  "
        f"ops attempted={run['attempted']} failed={run['failed']}"
    )
    print(f"  {'metric':<28} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12}"
          f"  {'raw median':>10}")
    for m in E2E_METRICS:
        q1, med, q3 = bench.quartiles(samples[m.name])
        raw_med = f"{raw[m.name]:10.4f}" if m.name in raw else ""
        print(f"  {m.name:<28} {m.unit:<6} {med:12.4f} {q1:12.4f} {q3:12.4f}"
              f"  {raw_med}")
    values = bench.layer_values(run)
    for m in LAYER_METRICS:
        v = values[m.name]
        shown = f"{v:12d}" if isinstance(v, int) else f"{v:12.4f}"
        print(f"  {m.name:<28} {m.unit:<6} {shown}")
    for problem in run["mismatches"]:
        print(f"  MISMATCH {problem}")


def _suite_record(runs: list[dict], args) -> dict:
    return {
        "machine": machine(),
        "seed": args.seed,
        "size": args.size,
        "workloads": {
            run["workload"]: {
                "attempted": run["attempted"],
                "failed": run["failed"],
                "mismatches": run["mismatches"],
                "e2e": bench.e2e_values(run),
                "layers": bench.layer_values(run) if run["traced"] else None,
                "repeats": run["repeats"],
                "traced": run["traced"],
            }
            for run in runs
        },
    }


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        from perfbench.compare import main as compare_main

        return compare_main(argv[1:])
    args = _parser().parse_args(argv)
    workloads = args.workload or list(WORKLOAD_NAMES)
    if args.trace is not None and len(workloads) != 1:
        print("--trace needs exactly one --workload", file=sys.stderr)
        return 2
    if args.seconds is None and args.repeats is None:
        args.repeats = 5
    if (args.repeats or 1) < 1 or (args.seconds or 0) < 0:
        print("--repeats must be >= 1 and --seconds >= 0", file=sys.stderr)
        return 2
    trace = args.trace != 0
    log = (lambda line: print(line, file=sys.stderr, flush=True))
    runs = []
    try:
        for name in workloads:
            runs.append(bench.measure(
                name, args.seed, size=args.size, seconds=args.seconds,
                repeats=args.repeats, trace=trace, log=log,
            ))
    except bench.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w") as f:
            json.dump(_suite_record(runs, args), f, indent=1, sort_keys=True)
            f.write("\n")
    if args.trace is None:
        for run in runs:
            _print_report(run)
    else:
        for problem in runs[0]["mismatches"]:
            print(f"perfbench: output mismatch {problem}", file=sys.stderr)
        print(json.dumps(_result_line(runs[0], bool(args.trace))))
    ok = all(run["failed"] == 0 for run in runs)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
