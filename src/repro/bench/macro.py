"""Macro benchmarks: the paper harnesses end to end.

Where the kernel suite isolates mechanisms, these measure what a PR
actually buys at the experiment level: the Sonata ``store_multi_json``
run (Figure 7's harness), the HEPnOS data loader on a Table IV shape
(Figures 9-12's harness), and the same loader with the online monitor
attached -- so a telemetry-layer regression shows up as the gap between
the last two.
"""

from __future__ import annotations

from typing import Callable

from .harness import BenchResult, SuiteResult, time_bench

__all__ = ["MACRO_BENCHMARKS", "run_macro_benchmarks"]


def bench_sonata(n_records: int, batch_size: int) -> tuple[int, str]:
    from ..experiments.sonata import run_sonata_experiment

    result = run_sonata_experiment(n_records=n_records, batch_size=batch_size)
    assert result.makespan > 0
    return n_records, "records"


def _hepnos(events_per_client: int, monitored: bool) -> tuple[int, str]:
    from ..experiments.configs import TABLE_IV
    from ..experiments.hepnos import run_hepnos_experiment
    from ..symbiosys.monitor import MonitorConfig

    result = run_hepnos_experiment(
        TABLE_IV["C1"],
        events_per_client=events_per_client,
        monitoring=MonitorConfig() if monitored else None,
    )
    return result.events_stored, "events"


def bench_hepnos(events_per_client: int) -> tuple[int, str]:
    return _hepnos(events_per_client, monitored=False)


def bench_hepnos_monitor(events_per_client: int) -> tuple[int, str]:
    return _hepnos(events_per_client, monitored=True)


#: name -> (full-scale thunk, smoke-scale thunk)
MACRO_BENCHMARKS: dict[str, tuple[Callable, Callable]] = {
    "sonata": (
        lambda: bench_sonata(10_000, 1_000),
        lambda: bench_sonata(1_000, 200),
    ),
    "hepnos": (
        lambda: bench_hepnos(192),
        lambda: bench_hepnos(32),
    ),
    "hepnos_monitor": (
        lambda: bench_hepnos_monitor(192),
        lambda: bench_hepnos_monitor(32),
    ),
}


def run_macro_benchmarks(
    *,
    repeats: int = 3,
    smoke: bool = False,
    log: Callable[[str], None] = lambda s: None,
) -> SuiteResult:
    results: list[BenchResult] = []
    for name, (full, small) in MACRO_BENCHMARKS.items():
        log(f"macro/{name}:")
        results.append(time_bench(name, small if smoke else full, repeats, log))
    return SuiteResult(suite="macro", results=results)
