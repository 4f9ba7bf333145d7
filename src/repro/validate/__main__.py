"""Command-line entry: ``python -m repro.validate <command>``.

Commands
--------

``fuzz``
    Sweep seeds x workloads x presets, each config run twice (export
    determinism cross-check) under invariant checking.  The ``churn``
    workload aims randomized kill/revive sequences at a sharded fleet
    and adds the conservation audit (no silent drops, bytes conserved
    across migrations).  ``--smoke`` is the small CI matrix (echo,
    sonata and churn).  On failure the shrunk minimal config is written
    to ``--repro`` and the exit code is 1.

``golden``
    Check the golden-trace corpus (or ``--regen`` it after intentional
    behaviour changes).  Mismatches print a readable summary diff and
    exit 1.
"""

from __future__ import annotations

import argparse
import json
import sys


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .fuzz import fuzz_sweep, load_repro, check_config

    if args.replay is not None:
        try:
            config = load_repro(args.replay)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"cannot load repro file: {exc}")
            return 2
        print(f"replaying {config.describe()}")
        detail = check_config(config)
        if detail is None:
            print("replay passed (failure no longer reproduces)")
            return 0
        print(f"replay FAILED: {detail}")
        return 1

    if args.smoke:
        seeds = range(3)
        workloads = ("echo", "sonata", "churn")
        presets = ("fast",)
    else:
        seeds = range(args.seeds)
        workloads = tuple(args.workloads.split(","))
        presets = tuple(args.presets.split(","))

    result = fuzz_sweep(
        seeds=seeds,
        workloads=workloads,
        presets=presets,
        fault_fraction=args.fault_fraction,
        repro_path=args.repro,
        log=print,
        jobs=args.jobs,
    )
    print(
        f"fuzz: {result.configs_run} config(s) run, "
        f"{len(result.failures)} failure(s)"
    )
    for failure in result.failures:
        print(f"  {failure.kind}: {failure.detail}")
        if failure.shrunk is not None:
            print(f"  minimal repro: {failure.shrunk.describe()}")
    return 0 if result.ok else 1


def _cmd_golden(args: argparse.Namespace) -> int:
    from .golden import check_golden, corpus_path, regen_golden

    services = args.services.split(",") if args.services else None
    if args.regen:
        corpus = regen_golden(services=services)
        print(f"regenerated {len(corpus)} golden entrie(s) at {corpus_path()}")
        return 0
    mismatches = check_golden(services=services)
    if not mismatches:
        print("golden corpus: all services match")
        return 0
    for mismatch in mismatches:
        print(mismatch.render())
    print(
        f"golden corpus: {len(mismatches)} mismatch(es); if intentional, "
        "run `python -m repro.validate golden --regen`"
    )
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.validate",
        description="Correctness tooling: fuzzing and golden-trace checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fuzz = sub.add_parser("fuzz", help="seed/fault fuzz with shrinking")
    p_fuzz.add_argument("--smoke", action="store_true", help="small CI matrix")
    p_fuzz.add_argument("--seeds", type=int, default=8, help="seeds per cell")
    p_fuzz.add_argument(
        "--workloads", default="echo,sonata", help="comma-separated workloads"
    )
    p_fuzz.add_argument(
        "--presets", default="fast", help="comma-separated presets (fast,theta)"
    )
    p_fuzz.add_argument(
        "--fault-fraction",
        type=float,
        default=0.5,
        help="fraction of configs that get a random fault plan",
    )
    p_fuzz.add_argument(
        "--repro",
        default="fuzz-repro.json",
        help="where to write the shrunk failing config",
    )
    p_fuzz.add_argument(
        "--replay", default=None, help="replay a previously written repro file"
    )
    p_fuzz.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the config checks (result is "
        "identical to --jobs 1; shrinking stays sequential)",
    )
    p_fuzz.set_defaults(func=_cmd_fuzz)

    p_golden = sub.add_parser("golden", help="golden-trace corpus check")
    p_golden.add_argument(
        "--regen", action="store_true", help="rewrite the corpus from fresh runs"
    )
    p_golden.add_argument(
        "--services", default=None, help="comma-separated subset to run"
    )
    p_golden.set_defaults(func=_cmd_golden)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
