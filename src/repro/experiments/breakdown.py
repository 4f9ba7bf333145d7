"""Figures 11-12 revisited through the critical-path engine.

The paper's Fig 11 shows that in the HEPnOS batch-size-1 regime most of
the cumulative RPC time is *unaccounted*: it falls outside every
instrumented t1..t14 sub-interval.  Fig 12 then explains it by looking
at ``num_ofi_events_read`` -- the origin progress loop drains completion
events in large gulps, so requests sit in the completion queue.  The
:mod:`repro.symbiosys.critical` engine turns that narrative into named
numbers: every request's latency decomposes into wait-state categories
that sum *exactly* to its end-to-end latency, so the formerly
unaccounted component shows up as ``progress_starvation`` plus
``ofi_cq_backlog`` instead of a residual.

This harness runs monitored HEPnOS loads in the Fig 11 knob regime
(C4: batch 1024 vs C5: batch 1 at pipeline width 64, plus C6 with the
raised ``OFI_max_events`` cap of Fig 12), decomposes each run, and
emits a machine-checkable report:

* the sum-to-total invariant is asserted for every request,
* the Fig 11 claim is checked (the CQ-side wait share of the batch-1
  regime exceeds the batched regime's),
* per-config category tables are printed byte-deterministically.

``--store`` archives each run (telemetry, profiles, breakdowns) into a
performance store; ``--out`` writes one flow-linked Perfetto critical-
path trace per config.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..symbiosys.critical import CATEGORIES, CriticalReport, analyze_collector
from ..symbiosys.monitor import MonitorConfig
from .configs import TABLE_IV
from .hepnos import PUT_PACKED, run_hepnos_experiment

__all__ = [
    "BreakdownExperimentResult",
    "CQ_WAIT_CATEGORIES",
    "run_breakdown_experiment",
]

#: The categories the paper's "unaccounted" component decomposes into:
#: time a finished or in-flight completion sat waiting for the origin
#: progress loop.
CQ_WAIT_CATEGORIES = ("ofi_cq_backlog", "progress_starvation")

#: Fig 11/12 knob regime: batched baseline, batch-1 storm, batch-1 with
#: the raised OFI event cap.
_DEFAULT_CONFIGS = ("C4", "C5", "C6")


def _pipeline_width(name: str) -> int:
    # Same widths the fig11/fig12 targets use: batch-1 configs push 64
    # concurrent windows, batched configs 32.
    return 64 if TABLE_IV[name].batch_size == 1 else 32


def _cq_share(report: CriticalReport, rpc: str) -> float:
    """CQ-side wait share of one operation's decomposed time."""
    op = report.operation_profiles().get(rpc)
    if op is None or op["total_ps"] == 0:
        return 0.0
    waiting = sum(op["categories"][c] for c in CQ_WAIT_CATEGORIES)
    return waiting / op["total_ps"]


@dataclass
class BreakdownExperimentResult:
    """Per-config critical-path decompositions plus the claim checks."""

    seed: int
    events_per_client: int
    config_names: list[str]
    reports: dict[str, CriticalReport]
    results: dict[str, object] = field(default_factory=dict, repr=False)

    def check_invariants(self) -> None:
        """Raise unless every request in every run sums exactly."""
        for name in self.config_names:
            self.reports[name].check_invariant()

    def cq_shares(self) -> dict[str, float]:
        """Config -> CQ-side wait share of ``sdskv_put_packed``."""
        return {
            name: _cq_share(self.reports[name], PUT_PACKED)
            for name in self.config_names
        }

    def fig11_check(self) -> bool:
        """The paper's Fig 11 finding, machine-checked: the batch-1
        regime (C5) hides more of its latency in CQ-side waits than the
        batched regime (C4)."""
        shares = self.cq_shares()
        if "C4" not in shares or "C5" not in shares:
            return True  # regime not part of this run; nothing to check
        return shares["C5"] > shares["C4"]

    def report(self) -> str:
        """Deterministic plain-text report (byte-identical per seed)."""
        lines = [
            f"critical-path breakdown (seed={self.seed}, "
            f"{self.events_per_client} events/client)",
        ]
        for name in self.config_names:
            rep = self.reports[name]
            cfg = TABLE_IV[name]
            lines.append("")
            lines.append(
                f"== {name}: batch={cfg.batch_size} "
                f"OFI_max_events={cfg.ofi_max_events} "
                f"pipeline={_pipeline_width(name)} =="
            )
            for line in rep.render(top=3).splitlines():
                lines.append(f"  {line}")
        lines.append("")
        lines.append("CQ-side wait share of sdskv_put_packed "
                     "(ofi_cq_backlog + progress_starvation):")
        for name, share in sorted(self.cq_shares().items()):
            lines.append(f"  {name}: {100.0 * share:6.2f}%")
        lines.append(
            "fig11_check (batch-1 C5 waits more on the CQ than batched "
            f"C4): {'PASS' if self.fig11_check() else 'FAIL'}"
        )
        ok = True
        try:
            self.check_invariants()
        except AssertionError:
            ok = False
        lines.append(
            f"sum-to-total invariant: {'PASS' if ok else 'FAIL'} "
            f"({sum(len(r.breakdowns) for r in self.reports.values())} "
            "requests, exact integer-picosecond sums)"
        )
        return "\n".join(lines)

    def write_artifacts(self, out_dir) -> list[str]:
        """One flow-linked Perfetto critical-path trace per config,
        plus the report text."""
        import os

        from ..symbiosys.export import write_text
        from ..symbiosys.perfetto import chrome_trace_json

        os.makedirs(out_dir, exist_ok=True)
        paths = []
        for name in self.config_names:
            result = self.results[name]
            path = os.path.join(out_dir, f"critical-{name}.trace.json")
            write_text(path, chrome_trace_json(
                monitor=result.monitor,
                collector=result.collector,
                critical=self.reports[name],
            ))
            paths.append(path)
        path = os.path.join(out_dir, "breakdown.txt")
        write_text(path, self.report() + "\n")
        paths.append(path)
        return paths


def run_breakdown_experiment(
    *,
    seed: int = 7,
    events_per_client: int = 192,
    configs: Sequence[str] = _DEFAULT_CONFIGS,
    store=None,
    out_dir: Optional[str] = None,
) -> BreakdownExperimentResult:
    """Run the Fig 11/12 regime monitored and decompose every request.

    ``store``, if given, archives each config's run (named
    ``breakdown-<config>-seed<seed>``) with stored per-request
    breakdowns and wait-state-annotated findings, so
    ``python -m repro.analysis query breakdown`` serves the same
    numbers later.
    """
    monitor_config = MonitorConfig(interval=50e-6)
    reports: dict[str, CriticalReport] = {}
    results: dict[str, object] = {}
    for name in configs:
        result = run_hepnos_experiment(
            TABLE_IV[name],
            events_per_client=events_per_client,
            pipeline_width=_pipeline_width(name),
            seed=seed,
            monitoring=monitor_config,
        )
        report = analyze_collector(result.collector, result.monitor)
        report.check_invariant()
        reports[name] = report
        results[name] = result
        if store is not None:
            from ..store import record_cluster_run

            record_cluster_run(
                store, result.cluster,
                name=f"breakdown-{name}-seed{seed}",
                tags={
                    "experiment": "breakdown",
                    "config": name,
                    "events_per_client": str(events_per_client),
                },
            )

    out = BreakdownExperimentResult(
        seed=seed,
        events_per_client=events_per_client,
        config_names=list(configs),
        reports=reports,
        results=results,
    )
    if out_dir is not None:
        out.write_artifacts(out_dir)
    return out
