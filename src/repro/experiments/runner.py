"""Parallel fan-out of deterministic experiment cells.

Every experiment in this repository is a pure function of its seed and
configuration, so a study decomposes into independent ``(seed, config)``
*cells*.  :func:`map_cells` dispatches cells across a pool of worker
processes and returns results in submission order, so the merged output
of ``--jobs N`` is byte-identical to ``--jobs 1`` -- parallelism must
never observably reorder anything (determinism is this repository's
law; see ``docs/performance.md``).

Two properties of the pool matter beyond ordering:

* **One-time setup is hoisted into an initializer.**  Workers used to
  pay the heavy experiment-stack import lazily inside the first cell
  they executed; :func:`_warm_worker` now runs once per worker at
  startup.
* **Workers are non-daemonic** (``ProcessPoolExecutor``, fork
  context), so a cell may itself start processes; daemonic
  ``multiprocessing.Pool`` workers cannot have children.

Cell workers are module-level functions taking one picklable dict, as
the pool requires.  Wall-clock fields returned by workers (the overhead
study times itself) naturally vary with ``jobs``; callers that promise
identical output across job counts must print only simulated quantities.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Sequence

__all__ = [
    "fault_campaign_cell",
    "fuzz_check_cell",
    "map_cells",
    "overhead_cell",
    "run_fault_campaigns",
]


def _warm_worker() -> None:
    """Per-worker one-time setup, run by the pool initializer.

    Imports the experiment stack (simulator, fabric, services, the
    experiment modules every cell worker reaches for) once at worker
    start instead of once inside the first cell.  Future per-process
    setup belongs here.
    """
    import repro.cluster  # noqa: F401  pulls sim/net/margo/symbiosys
    import repro.experiments.faults  # noqa: F401
    import repro.experiments.hepnos  # noqa: F401
    import repro.validate.fuzz  # noqa: F401


def map_cells(worker: Callable, cells: Iterable, jobs: int = 1) -> list:
    """Run ``worker`` over every cell, ``jobs`` at a time.

    Results come back in cell order regardless of completion order
    (``Executor.map`` preserves input order), so merging is
    deterministic.  ``jobs <= 1`` runs inline -- no pool, no pickling
    requirements.
    """
    cells = list(cells)
    if jobs <= 1 or len(cells) <= 1:
        return [worker(cell) for cell in cells]
    with ProcessPoolExecutor(
        max_workers=min(jobs, len(cells)),
        mp_context=multiprocessing.get_context("fork"),
        initializer=_warm_worker,
    ) as pool:
        return list(pool.map(worker, cells))


# -- cell workers (module level: the pool pickles them by name) ----------


def overhead_cell(cell: dict) -> dict:
    """One (stage, repetition) run of the overhead study.

    Returns plain floats, not the experiment result -- collectors hold
    the full trace and are expensive to ship between processes.
    """
    from .hepnos import run_hepnos_experiment

    t0 = time.perf_counter()
    result = run_hepnos_experiment(
        cell["config"],
        events_per_client=cell["events_per_client"],
        stage=cell["stage"],
        preset=cell["preset"],
        seed=cell["seed"],
        monitoring=cell["monitoring"],
    )
    return {
        "wall": time.perf_counter() - t0,
        "makespan": result.makespan,
        "trace_events": result.collector.total_trace_events,
    }


def fault_campaign_cell(cell: dict):
    """One seeded baseline-vs-faulted Sonata campaign."""
    from .faults import run_fault_campaign

    return run_fault_campaign(**cell)


def fuzz_check_cell(cell: dict):
    """One fuzz configuration's double-run determinism check; returns
    the failure detail string or None."""
    from ..validate.fuzz import FuzzConfig, check_config

    return check_config(FuzzConfig.from_dict(cell))


# -- multi-seed campaigns ------------------------------------------------


def run_fault_campaigns(
    seeds: Sequence[int], jobs: int = 1, **kwargs
) -> list:
    """Run the fault campaign once per seed (see
    :func:`~repro.experiments.faults.run_fault_campaign` for ``kwargs``);
    results are ordered by seed."""
    cells = [dict(kwargs, seed=seed) for seed in seeds]
    return map_cells(fault_campaign_cell, cells, jobs=jobs)
