"""Measure workloads: fresh-interpreter repeats, normalisation, metrics.

This module runs in the benchmark's own process and never imports
``repro``: every repeat runs in a child interpreter
(:mod:`perfbench.child`), one at a time, and reports back one JSON
record.  Here the records are normalised to the reference machine,
checked against the recorded outputs, and reduced to the metrics.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

from perfbench.layers import LAYERS

__all__ = [
    "BenchError",
    "E2E_METRICS",
    "LAYER_METRICS",
    "WORKLOAD_NAMES",
    "check_record",
    "e2e_values",
    "layer_values",
    "load_reference",
    "measure",
    "quartiles",
]

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def load_reference() -> dict:
    """``reference.json``: the seed-0 outputs, the per-workload bounds
    and the machine the reference calibration was taken on."""
    with open(os.path.join(os.path.dirname(__file__), "reference.json")) as f:
        return json.load(f)


#: In benchmark order.
WORKLOAD_NAMES = ("fleet_n640", "hepnos_c5", "hepnos_c1", "sonata_fig7")

#: A run keeps starting repeats until ``seconds`` have passed and it has
#: at least this many; a median of fewer would be one noisy sample.
MIN_REPEATS = 3
#: Hard cap on one run, so that it ends well within three minutes even
#: on a machine several times slower than the reference.
RUN_BUDGET_S = 150.0


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str


#: End-to-end metrics, measured with tracing off.
E2E_METRICS = (
    Metric("setup_s", "s", "lower"),
    Metric("run_s", "s", "lower"),
    Metric("ops_per_s", "ops/s", "higher"),
    Metric("peak_rss_mb", "MB", "lower"),
)

#: Layers every workload runs through.  Only these report ``self_s``:
#: the others are bypassed outright by some workload, where their time
#: would read 0 on every run.  Their time is ``share`` x
#: ``profile.total_s``, and ``calls`` says whether they ran at all.
STACK_LAYERS = (
    "sim", "argobots", "net", "mercury", "margo", "symbiosys", "services",
    "driver",
)


def _layer_metrics() -> tuple[Metric, ...]:
    out = [Metric("profile.total_s", "s", "lower")]
    for layer in LAYERS:
        if layer in STACK_LAYERS:
            out.append(Metric(f"{layer}.self_s", "s", "lower"))
        out.append(Metric(f"{layer}.share", "ratio", "lower"))
        out.append(Metric(f"{layer}.calls", "count", "lower"))
        out.append(Metric(f"{layer}.calls_in", "count", "lower"))
    out += [
        Metric("sim.events", "count", "lower"),
        Metric("sim.events_per_s", "1/s", "higher"),
        Metric("phase.report_s", "s", "lower"),
        Metric("trace.overhead", "ratio", "lower"),
    ]
    return tuple(out)


#: Per-layer metrics, from one traced (cProfile) repeat.
LAYER_METRICS = _layer_metrics()


class BenchError(RuntimeError):
    """A repeat could not run (missing sources, crash, timeout)."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, ROOT])
    # One thread, and one string-hash order, for every repeat.
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(
    workload: str, seed: int, size: str, profile: bool, timeout: float
) -> dict:
    """Run one repeat in a fresh interpreter and return its record."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise BenchError(f"no simulator sources at {SRC}")
    cmd = [sys.executable, "-m", "perfbench.child", workload, str(seed), size]
    if profile:
        cmd.append("--profile")
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=max(1.0, timeout),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} repeat exceeded {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise BenchError(
            f"{workload} repeat failed (exit {proc.returncode}):\n{tail}"
        )
    return json.loads(lines[-1])


def check_record(record: dict, expected: dict | None) -> list[str]:
    """Mismatches between a repeat's outputs and the recorded ones.

    ``expected`` holds the exact simulated outputs recorded at seed 0
    for the full-size workload; it is None where nothing was recorded
    (other seeds, the tiny size), and then only the invariants the
    workload checked itself apply.  A mismatch fails every op of the
    repeat.
    """
    if expected is None:
        return []
    got = record["outputs"]
    return [
        f"{record['workload']}.{key}: expected {want!r}, got {got.get(key)!r}"
        for key, want in sorted(expected.items())
        if got.get(key) != want
    ]


def expected_outputs(workload: str, seed: int, size: str) -> dict | None:
    """The recorded outputs a repeat must reproduce exactly, if any."""
    if seed != 0 or size != "full":
        return None
    return load_reference()["expected_seed0"][workload]


def _normalise(records: list[dict]) -> None:
    """Add ``norm`` to each record: its timings scaled to the reference
    machine by the median of every calibration spin of the run (two per
    repeat), which follows the machine's speed from run to run without
    carrying one disturbed spin into a repeat's numbers."""
    spins = [s for r in records for s in r["calibration_s"]]
    factor = load_reference()["ref_calibration_s"] / statistics.median(spins)
    for record in records:
        record["norm"] = {
            key: record[key] * factor
            for key in ("setup_s", "run_s", "report_s", "wall_s")
        }


def measure(
    workload: str,
    seed: int,
    *,
    size: str = "full",
    seconds: float | None = None,
    repeats: int | None = None,
    trace: bool = False,
    log=lambda line: None,
) -> dict:
    """Untraced repeats (a fixed number, or as many as fit in
    ``seconds``), then with ``trace`` one cProfile repeat.

    Returns ``{"repeats": [...], "traced": record | None, "mismatches":
    [...], "attempted": n, "failed": n}``; a repeat whose outputs differ
    from the recorded ones (:func:`expected_outputs`) counts all its ops
    as failed.
    """
    if (seconds is None) == (repeats is None):
        raise ValueError("give exactly one of seconds and repeats")
    expected = expected_outputs(workload, seed, size)
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    records: list[dict] = []
    longest = 0.0
    while True:
        t0 = time.monotonic()
        records.append(run_child(workload, seed, size, False, deadline - t0))
        now = time.monotonic()
        longest = max(longest, now - t0)
        log(f"  {workload} [{len(records)}] wall {records[-1]['wall_s']:.3f} s")
        if repeats is not None:
            if len(records) >= repeats:
                break
        elif now - start >= seconds and len(records) >= MIN_REPEATS:
            break
        # Stop early rather than overrun the budget (one repeat of
        # headroom per remaining repeat, plus the traced one).
        if now + longest * (4 if trace else 1) > deadline:
            break
    traced = None
    if trace:
        traced = run_child(
            workload, seed, size, True, deadline - time.monotonic()
        )
        log(f"  {workload} [traced] wall {traced['wall_s']:.3f} s")
    everything = records + ([traced] if traced else [])
    _normalise(everything)
    attempted = failed = 0
    mismatches: list[str] = []
    for record in everything:
        problems = check_record(record, expected)
        if problems:
            record["failed"] = record["attempted"]
            mismatches += problems
        attempted += record["attempted"]
        failed += record["failed"]
    return {
        "workload": workload,
        "seed": seed,
        "size": size,
        "repeats": records,
        "traced": traced,
        "mismatches": mismatches,
        "attempted": attempted,
        "failed": failed,
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def e2e_values(run: dict) -> dict[str, list[float]]:
    """Per-repeat samples of every end-to-end metric (normalised)."""
    reps = run["repeats"]
    return {
        "setup_s": [r["norm"]["setup_s"] for r in reps],
        "run_s": [r["norm"]["run_s"] for r in reps],
        "ops_per_s": [
            (r["attempted"] - r["failed"]) / r["norm"]["wall_s"] for r in reps
        ],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }


def layer_values(run: dict) -> dict[str, float]:
    """Every per-layer metric, from the traced repeat."""
    traced = run["traced"]
    fold = traced["layers"]
    out: dict[str, float] = {"profile.total_s": fold["total_s"]}
    for layer in LAYERS:
        row = fold["layers"][layer]
        if layer in STACK_LAYERS:
            out[f"{layer}.self_s"] = row["self_s"]
        out[f"{layer}.share"] = row["share"]
        out[f"{layer}.calls"] = row["calls"]
        out[f"{layer}.calls_in"] = row["calls_in"]
    run_s = statistics.median(r["norm"]["run_s"] for r in run["repeats"])
    wall_s = statistics.median(r["norm"]["wall_s"] for r in run["repeats"])
    out["sim.events"] = traced["sim_events"]
    out["sim.events_per_s"] = traced["sim_events"] / run_s
    out["phase.report_s"] = statistics.median(
        r["norm"]["report_s"] for r in run["repeats"]
    )
    out["trace.overhead"] = traced["norm"]["wall_s"] / wall_s
    return out
