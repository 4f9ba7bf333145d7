"""Deterministic statistics for the analysis service.

The muBench replication's ``STATISTICAL_ANALYSIS_NOTES.md`` sets the
reporting bar this module meets: never a bare median -- every reported
statistic carries a bootstrap confidence interval.  Everything is
seeded and wall-clock-free, so a query's reply bytes are a pure
function of (store contents, query parameters).
"""

from __future__ import annotations

import random
from typing import Callable, Optional, Sequence

__all__ = [
    "bootstrap_ci",
    "bootstrap_delta_ci",
    "check_bootstrap",
    "mean",
    "percentile",
    "round9",
    "subsample",
]

#: Cap on values fed to the bootstrap; larger inputs are strided down
#: deterministically so cross-run queries stay fast at any store size.
MAX_BOOTSTRAP_VALUES = 512


def round9(x: float) -> float:
    """Canonical rounding for reply payloads (stable reply bytes even
    if an intermediate is recomputed in a different association order)."""
    return round(float(x), 9)


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile on a sorted copy (q in [0, 100])."""
    if not 0 <= q <= 100:
        raise ValueError("percentile must be in [0, 100]")
    if not values:
        return 0.0
    ordered = sorted(values)
    if q == 100:
        return ordered[-1]
    return ordered[min(len(ordered) - 1, int(q / 100.0 * len(ordered)))]


def subsample(values: Sequence[float], cap: int = MAX_BOOTSTRAP_VALUES) -> list:
    """Deterministic stride-based subsample preserving order."""
    n = len(values)
    if n <= cap:
        return list(values)
    stride = n / cap
    return [values[int(i * stride)] for i in range(cap)]


def check_bootstrap(n_boot: int, alpha: float) -> None:
    """Reject a resample count below 1 or a level outside (0, 1): either
    would index past the sorted draws or pick the wrong quantiles."""
    if n_boot < 1:
        raise ValueError(f"n_boot must be at least 1, got {n_boot}")
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")


def _resample(rng: random.Random, values: Sequence[float]) -> list[float]:
    n = len(values)
    return [values[rng.randrange(n)] for _ in range(n)]


def bootstrap_ci(
    values: Sequence[float],
    stat: Optional[Callable[[Sequence[float]], float]] = None,
    *,
    n_boot: int = 200,
    seed: int = 0,
    alpha: float = 0.05,
) -> tuple[float, float]:
    """Percentile-bootstrap ``(lo, hi)`` CI of ``stat`` over ``values``.

    Seeded, so identical inputs give identical intervals.  ``stat``
    defaults to the mean.
    """
    check_bootstrap(n_boot, alpha)
    if not values:
        return (0.0, 0.0)
    stat = stat or mean
    values = subsample(values)
    rng = random.Random(seed)
    draws = sorted(stat(_resample(rng, values)) for _ in range(n_boot))
    lo = draws[int((alpha / 2) * n_boot)]
    hi = draws[min(n_boot - 1, int((1 - alpha / 2) * n_boot))]
    return (round9(lo), round9(hi))


def bootstrap_delta_ci(
    base: Sequence[float],
    head: Sequence[float],
    stat: Optional[Callable[[Sequence[float]], float]] = None,
    *,
    n_boot: int = 200,
    seed: int = 0,
    alpha: float = 0.05,
) -> tuple[float, float]:
    """CI of ``stat(head) - stat(base)`` by independent resampling of
    both sample sets (the two-run regression question)."""
    check_bootstrap(n_boot, alpha)
    if not base or not head:
        return (0.0, 0.0)
    stat = stat or mean
    base = subsample(base)
    head = subsample(head)
    rng = random.Random(seed)
    draws = sorted(
        stat(_resample(rng, head)) - stat(_resample(rng, base))
        for _ in range(n_boot)
    )
    lo = draws[int((alpha / 2) * n_boot)]
    hi = draws[min(n_boot - 1, int((1 - alpha / 2) * n_boot))]
    return (round9(lo), round9(hi))
