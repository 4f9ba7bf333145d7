"""Seed / workload / fault-plan fuzzing with shrinking.

``fuzz_sweep`` walks a matrix of seeds, workload presets, and randomly
generated :class:`~repro.faults.FaultPlan` s.  Every configuration runs
**twice**; a configuration fails when

* either run records an invariant violation,
* either run of the ``churn`` workload fails its conservation audit,
* the two runs disagree on any export digest (Perfetto / Prometheus /
  CSV / profile, plus the churn audit -- export-level
  nondeterminism), or
* the workload hangs.

A failing configuration is **shrunk** ddmin-style -- drop fault rules
one at a time, then halve the workload scale -- to a minimal config
that still fails, and written to a JSON repro file that
``python -m repro.validate fuzz --repro FILE`` replays exactly.

All randomness comes from one seeded :class:`numpy.random.Generator`;
generated plan parameters are quantized so plans survive the JSON
round-trip bit-exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Callable, Optional

import numpy as np

from ..faults import FaultPlan
from ..faults.plan import (
    CrashFault,
    DelayRule,
    DropRule,
    DuplicateRule,
    HandlerFaultRule,
    RestartFault,
)
from .workloads import WORKLOAD_SERVERS, WorkloadHang, run_workload

__all__ = [
    "FailureReport",
    "FuzzConfig",
    "SweepResult",
    "check_config",
    "fuzz_sweep",
    "load_repro",
    "random_fault_plan",
    "shrink",
    "write_repro",
]


@dataclass(frozen=True)
class FuzzConfig:
    """One point in the fuzzed configuration space."""

    seed: int
    workload: str = "echo"
    preset: str = "fast"
    scale: int = 2
    plan: Optional[FaultPlan] = None

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "workload": self.workload,
            "preset": self.preset,
            "scale": self.scale,
            "plan": None if self.plan is None else self.plan.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FuzzConfig":
        plan = data.get("plan")
        return cls(
            seed=data["seed"],
            workload=data.get("workload", "echo"),
            preset=data.get("preset", "fast"),
            scale=data.get("scale", 2),
            plan=None if plan is None else FaultPlan.from_dict(plan),
        )

    def describe(self) -> str:
        n_rules = 0
        if self.plan is not None:
            n_rules = (
                len(self.plan.wire_rules)
                + len(self.plan.process_faults)
                + len(self.plan.handler_rules)
            )
        return (
            f"{self.workload}/{self.preset} seed={self.seed} "
            f"scale={self.scale} fault_rules={n_rules}"
        )


@dataclass(frozen=True)
class FailureReport:
    """Why one configuration failed, plus its shrunk form."""

    config: FuzzConfig
    kind: str  # "invariant" | "conservation" | "nondeterminism" | "hang"
    detail: str
    shrunk: Optional[FuzzConfig] = None


@dataclass
class SweepResult:
    configs_run: int = 0
    failures: list[FailureReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _quantize(x: float, step: float = 1e-6) -> float:
    """Snap to a decimal grid so the value survives JSON round-trips."""
    return round(round(x / step) * step, 9)


def _kill_revive_plan(
    rng: np.random.Generator, servers: tuple[str, ...]
) -> FaultPlan:
    """Draw a kill/revive sequence over distinct servers.

    Between one and three process faults, each a permanent crash or a
    bounce (crash + revive), at quantized times inside the churn
    window.  At least one live server always remains."""
    n = int(rng.integers(1, 4))
    victims = rng.choice(
        list(servers), size=min(n, len(servers) - 1), replace=False
    )
    faults = []
    for victim in sorted(str(v) for v in victims):
        at = _quantize(0.3e-3 + 1.0e-3 * rng.random())
        if rng.random() < 0.5:
            faults.append(CrashFault(addr=victim, at=at))
        else:
            faults.append(
                RestartFault(
                    addr=victim,
                    at=at,
                    downtime=_quantize(0.2e-3 + 0.5e-3 * rng.random()),
                    warmup=0.0,
                )
            )
    return FaultPlan(name="churn-fuzz", process_faults=faults)


def random_fault_plan(
    rng: np.random.Generator, workload: str
) -> Optional[FaultPlan]:
    """Draw a random (possibly empty) campaign aimed at the workload's
    servers.  Parameters are quantized for lossless serialization.
    The ``churn`` workload always gets a kill/revive sequence."""
    servers = WORKLOAD_SERVERS[workload]
    if workload == "churn":
        return _kill_revive_plan(rng, servers)
    server = str(rng.choice(list(servers)))
    wire_rules = []
    process_faults = []
    handler_rules = []

    if rng.random() < 0.5:
        wire_rules.append(
            DropRule(
                dst=server,
                kind="rpc_request",
                probability=_quantize(0.05 + 0.15 * rng.random(), 0.01),
            )
        )
    if rng.random() < 0.35:
        wire_rules.append(
            DuplicateRule(
                dst=server,
                probability=_quantize(0.05 + 0.10 * rng.random(), 0.01),
            )
        )
    if rng.random() < 0.35:
        wire_rules.append(
            DelayRule(
                dst=server,
                extra=_quantize(50e-6 + 150e-6 * rng.random()),
                spread=_quantize(100e-6 * rng.random()),
                probability=_quantize(0.1 + 0.2 * rng.random(), 0.01),
            )
        )
    if rng.random() < 0.3:
        at = _quantize(0.2e-3 + 1e-3 * rng.random())
        if rng.random() < 0.5:
            process_faults.append(CrashFault(addr=server, at=at))
        else:
            process_faults.append(
                RestartFault(
                    addr=server,
                    at=at,
                    downtime=_quantize(0.1e-3 + 0.4e-3 * rng.random()),
                    warmup=_quantize(0.1e-3 * rng.random()),
                )
            )
    if rng.random() < 0.3:
        handler_rules.append(
            HandlerFaultRule(
                addr=server,
                error_probability=_quantize(0.05 + 0.1 * rng.random(), 0.01),
            )
        )

    if not (wire_rules or process_faults or handler_rules):
        return None
    return FaultPlan(
        name="fuzz",
        wire_rules=wire_rules,
        process_faults=process_faults,
        handler_rules=handler_rules,
    )


def check_config(config: FuzzConfig, time_limit: float = 5.0) -> Optional[str]:
    """Run ``config`` twice; return a failure description or None.

    The double run cross-checks export-level determinism: identical
    Perfetto JSON, Prometheus text, CSV series, and profile output (and
    churn audit) for identical inputs.
    """
    runs = []
    for _ in range(2):
        try:
            runs.append(
                run_workload(
                    config.workload,
                    seed=config.seed,
                    preset=config.preset,
                    scale=config.scale,
                    plan=config.plan,
                    time_limit=time_limit,
                )
            )
        except WorkloadHang as exc:
            return f"hang: {exc}"
    for artifacts in runs:
        if artifacts.violations:
            v = artifacts.violations[0]
            return (
                f"invariant: {len(artifacts.violations)} violation(s), "
                f"first: {v.render()}"
            )
        if artifacts.churn is not None and not artifacts.churn["audit"]["ok"]:
            return f"conservation: audit failed: {artifacts.churn['audit']}"
    mismatch = {
        name: (a, b)
        for (name, a), (_, b) in zip(
            sorted(runs[0].digests().items()), sorted(runs[1].digests().items())
        )
        if a != b
    }
    if mismatch:
        detail = ", ".join(
            f"{name}: {a} != {b}" for name, (a, b) in mismatch.items()
        )
        return f"nondeterminism: {detail}"
    return None


def _plan_variants(plan: FaultPlan) -> list[Optional[FaultPlan]]:
    """Candidate simplifications: the plan with one rule removed each."""
    variants: list[Optional[FaultPlan]] = []
    for attr in ("wire_rules", "process_faults", "handler_rules"):
        rules = getattr(plan, attr)
        for i in range(len(rules)):
            reduced = plan.replace(**{attr: rules[:i] + rules[i + 1 :]})
            variants.append(None if reduced.is_empty else reduced)
    return variants


def shrink(
    config: FuzzConfig,
    is_failing: Callable[[FuzzConfig], bool],
    max_evals: int = 32,
) -> FuzzConfig:
    """Greedy ddmin: drop fault rules one at a time, then halve the
    scale, keeping every simplification that still fails.  Bounded by
    ``max_evals`` calls to ``is_failing``."""
    evals = 0

    def still_fails(candidate: FuzzConfig) -> bool:
        nonlocal evals
        if evals >= max_evals:
            return False
        evals += 1
        return is_failing(candidate)

    current = config
    progress = True
    while progress and evals < max_evals:
        progress = False
        if current.plan is not None:
            for plan in _plan_variants(current.plan):
                candidate = FuzzConfig(
                    seed=current.seed,
                    workload=current.workload,
                    preset=current.preset,
                    scale=current.scale,
                    plan=plan,
                )
                if still_fails(candidate):
                    current = candidate
                    progress = True
                    break
            if progress:
                continue
        if current.scale > 1:
            candidate = FuzzConfig(
                seed=current.seed,
                workload=current.workload,
                preset=current.preset,
                scale=max(1, current.scale // 2),
                plan=current.plan,
            )
            if still_fails(candidate):
                current = candidate
                progress = True
    return current


def write_repro(report: FailureReport, path: str) -> None:
    """Persist a failure as a replayable JSON repro file."""
    payload = {
        "kind": report.kind,
        "detail": report.detail,
        "config": report.config.to_dict(),
        "shrunk": None if report.shrunk is None else report.shrunk.to_dict(),
    }
    with open(path, "w", newline="\n") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


_CONFIG_FIELDS = {f.name for f in fields(FuzzConfig)}


def load_repro(path: str) -> FuzzConfig:
    """Load the (shrunk, if available) config from a repro file."""
    with open(path) as f:
        payload = json.load(f)
    data = payload.get("shrunk") or payload.get("config")
    if not isinstance(data, dict) or not (
        {"seed", "workload"} <= data.keys() <= _CONFIG_FIELDS
    ):
        raise ValueError(
            f"{path} is not a fuzz repro file (expected a 'config' entry "
            f"with 'seed' and 'workload' and no key outside "
            f"{sorted(_CONFIG_FIELDS)}, as written by write_repro)"
        )
    return FuzzConfig.from_dict(data)


def _sweep_configs(
    seeds, workloads, presets, fault_fraction: float
) -> list[FuzzConfig]:
    """The sweep's configuration matrix, in deterministic order (plan
    generation consumes the per-seed RNG identically regardless of how
    the configs are later dispatched)."""
    configs = []
    for workload in workloads:
        for preset in presets:
            for seed in seeds:
                rng = np.random.default_rng(seed * 1_000_003 + 17)
                plan = (
                    random_fault_plan(rng, workload)
                    if rng.random() < fault_fraction
                    else None
                )
                configs.append(
                    FuzzConfig(
                        seed=seed, workload=workload, preset=preset, plan=plan
                    )
                )
    return configs


def fuzz_sweep(
    *,
    seeds: range | list[int] = range(4),
    workloads: tuple[str, ...] = ("echo", "sonata"),
    presets: tuple[str, ...] = ("fast",),
    fault_fraction: float = 0.5,
    repro_path: Optional[str] = None,
    log: Callable[[str], None] = lambda s: None,
    jobs: int = 1,
) -> SweepResult:
    """The fuzz campaign: seeds x workloads x presets, with a random
    fault plan on ``fault_fraction`` of the configs.

    The sweep stops at the first failure, which is shrunk and (if
    ``repro_path`` is given) written as a repro file.

    ``jobs > 1`` checks the configurations in parallel worker processes
    (shrinking stays sequential -- ddmin is adaptive).  The reported
    result is identical to ``jobs=1``: failures are examined in matrix
    order and only the first one counts, even if later cells (already
    dispatched) also failed.
    """
    configs = _sweep_configs(seeds, workloads, presets, fault_fraction)
    result = SweepResult()

    if jobs > 1:
        from ..experiments.runner import fuzz_check_cell, map_cells

        for config in configs:
            log(f"fuzz: {config.describe()}")
        details = map_cells(
            fuzz_check_cell, [c.to_dict() for c in configs], jobs=jobs
        )
    else:
        details = None

    for i, config in enumerate(configs):
        if details is not None:
            detail = details[i]
        else:
            log(f"fuzz: {config.describe()}")
            detail = check_config(config)
        result.configs_run += 1
        if detail is None:
            continue
        kind = detail.split(":", 1)[0]
        log(f"  FAILED ({detail}); shrinking...")
        shrunk = shrink(config, lambda c: check_config(c) is not None)
        report = FailureReport(
            config=config, kind=kind, detail=detail, shrunk=shrunk
        )
        result.failures.append(report)
        log(f"  shrunk to: {shrunk.describe()}")
        if repro_path is not None:
            write_repro(report, repro_path)
            log(f"  repro written to {repro_path}")
        return result
    return result
