"""Online-monitoring experiment: watch a Sonata campaign live.

The post-mortem harnesses (profiles, traces, the fault campaign) answer
questions after the run; this one exercises the *online* half of the
observability layer.  It runs the Sonata ``store_multi_json`` workload
under the default fault plan with a :class:`~repro.symbiosys.Monitor`
attached, so the run produces, while it unfolds:

* ring-buffer time-series of every PVAR / tasking / fabric gauge,
* ULT-level scheduler slices for the Perfetto timeline,
* anomaly findings (the server crash trips the progress-starvation
  detector; the retry storm around it trips the timeout-burst detector),

and then renders the three export formats.  Everything is deterministic:
``run_monitor_experiment(seed=S).report()`` -- including the sha256
digests of all four artifacts -- is byte-identical across runs of the
same ``S``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..cluster import Cluster
from ..faults import FaultPlan
from ..margo import MargoError, RetryPolicy
from ..services.sonata import SonataClient, SonataProvider
from ..symbiosys import Stage
from ..symbiosys.export import digest, series_to_csv, to_prometheus, write_text
from ..symbiosys.monitor import Finding, MonitorConfig
from ..symbiosys.perfetto import chrome_trace_json
from ..workloads import generate_json_records
from .faults import default_fault_plan, default_retry_policy

__all__ = [
    "MonitorExperimentResult",
    "run_monitor_experiment",
]

_SERVER = "sonata-svr"
_CLIENT = "sonata-cli"
_PROVIDER_ID = 1

#: Tuned for the default fault campaign: the sampler is fast enough to
#: see the 0.4 ms restart downtime, and the burst detector matches the
#: retry policy's timeout scale.
_MONITOR_CONFIG = MonitorConfig(
    interval=25e-6,
    starvation_threshold=0.2e-3,
    queue_watermark=8,
    timeout_burst_count=2,
    timeout_burst_window=2e-3,
)


@dataclass
class MonitorExperimentResult:
    """One monitored Sonata campaign plus its rendered artifacts."""

    seed: int
    plan_name: str
    n_records: int
    batch_size: int
    makespan: float
    batches_ok: int
    batches_failed: int
    n_series: int
    n_samples: int
    n_sched_slices: int
    sampler_ticks: int
    findings: list[Finding] = field(default_factory=list)
    #: Rendered artifacts (also written to disk by ``write_artifacts``).
    prometheus_text: str = ""
    series_csv: str = ""
    perfetto_json: str = ""
    findings_text: str = ""

    def digests(self) -> dict[str, str]:
        """sha256 prefixes of every artifact -- the determinism probe."""
        return {
            "prometheus": digest(self.prometheus_text),
            "series_csv": digest(self.series_csv),
            "perfetto": digest(self.perfetto_json),
            "findings": digest(self.findings_text),
        }

    def write_artifacts(self, out_dir) -> list[str]:
        """Write the four artifacts into ``out_dir``; returns the paths."""
        import os

        os.makedirs(out_dir, exist_ok=True)
        files = {
            "metrics.prom": self.prometheus_text,
            "series.csv": self.series_csv,
            "timeline.perfetto.json": self.perfetto_json,
            "findings.txt": self.findings_text,
        }
        paths = []
        for name, text in files.items():
            path = os.path.join(out_dir, name)
            write_text(path, text)
            paths.append(path)
        return paths

    def report(self) -> str:
        """Deterministic plain-text report (byte-identical per seed)."""
        lines = [
            f"monitored campaign {self.plan_name!r} (seed={self.seed})",
            f"  workload: {self.n_records} records in batches of "
            f"{self.batch_size}",
            f"  makespan: {self.makespan * 1e3:.6f} ms  "
            f"({self.batches_ok} batches ok, {self.batches_failed} lost)",
            f"  telemetry: {self.n_series} series, {self.n_samples} samples, "
            f"{self.sampler_ticks} ticks, {self.n_sched_slices} sched slices",
            f"  anomalies ({len(self.findings)}):",
        ]
        for f in self.findings:
            lines.append(
                f"    {f.time * 1e3:12.6f} ms  {f.detector:<24} "
                f"{f.process:<14} {f.message}"
            )
        lines.append("  artifact digests:")
        for name, hexdigest in sorted(self.digests().items()):
            lines.append(f"    {name:<12} {hexdigest}")
        return "\n".join(lines)


def run_monitor_experiment(
    *,
    seed: int = 0,
    n_records: int = 2_000,
    batch_size: int = 100,
    plan: Optional[FaultPlan] = None,
    retry: Optional[RetryPolicy] = None,
    out_dir: Optional[str] = None,
    time_limit: float = 600.0,
    store=None,
) -> MonitorExperimentResult:
    """Run the Sonata workload under faults with the monitor attached.

    ``out_dir``, if given, receives the four artifacts (Prometheus
    snapshot, CSV time-series, Perfetto timeline, findings log).
    ``store``, if given (a path or :class:`~repro.store.PerfStore`),
    receives the full run -- telemetry, traces, profiles -- as one
    archived run named ``monitor-seed<seed>``; the artifacts written to
    ``out_dir`` stay byte-identical either way.
    """
    plan = plan if plan is not None else default_fault_plan()
    retry = retry if retry is not None else default_retry_policy()

    with Cluster(
        seed=seed,
        stage=Stage.FULL,
        fault_plan=plan,
        retry=retry,
        monitoring=_MONITOR_CONFIG,
        store=store,
        run_name=f"monitor-seed{seed}",
        run_tags={
            "experiment": "monitor",
            "plan": plan.name,
            "n_records": str(n_records),
            "batch_size": str(batch_size),
        },
    ) as cluster:
        server = cluster.process(_SERVER, "nodeA", n_handler_es=2)
        SonataProvider(server, _PROVIDER_ID)
        client_mi = cluster.process(_CLIENT, "nodeB")
        client = SonataClient(client_mi)
        records = generate_json_records(n_records, fields_per_record=6)
        outcome = {"ok": 0, "failed": 0}
        done = cluster.sim.event("campaign-done")

        def body():
            yield from client.create_database(_SERVER, _PROVIDER_ID, "bench")
            for start in range(0, n_records, batch_size):
                batch = records[start : start + batch_size]
                try:
                    yield from client.store_multi(
                        _SERVER, _PROVIDER_ID, "bench", batch,
                        batch_size=len(batch),
                    )
                    outcome["ok"] += 1
                except MargoError:
                    outcome["failed"] += 1
            done.succeed(cluster.sim.now)

        client_mi.client_ult(body(), name="monitor-campaign")
        if not cluster.run_until_event(done, limit=time_limit):
            raise RuntimeError("monitored campaign did not finish in time")
        makespan = done.value

    monitor = cluster.monitor
    result = MonitorExperimentResult(
        seed=seed,
        plan_name=plan.name,
        n_records=n_records,
        batch_size=batch_size,
        makespan=makespan,
        batches_ok=outcome["ok"],
        batches_failed=outcome["failed"],
        n_series=len(monitor.store),
        n_samples=monitor.store.total_samples,
        n_sched_slices=len(monitor.sched),
        sampler_ticks=monitor.sampler.ticks,
        findings=list(monitor.findings),
        prometheus_text=to_prometheus(monitor),
        series_csv=series_to_csv(monitor.store),
        perfetto_json=chrome_trace_json(
            monitor=monitor,
            collector=cluster.collector,
            fault_events=cluster.fault_events(),
        ),
        findings_text=monitor.findings_report() + "\n",
    )
    if out_dir is not None:
        result.write_artifacts(out_dir)
    return result
