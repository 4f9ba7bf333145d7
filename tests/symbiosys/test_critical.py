"""Critical-path engine tests: the sum-to-total invariant as a
property across seeds, services, and fault plans; blame attribution;
finding annotation; determinism."""

import pytest

from repro.faults import DelayRule, DropRule, FaultPlan, RestartFault
from repro.margo import MargoTimeoutError, RetryPolicy
from repro.symbiosys import Stage
from repro.symbiosys.critical import (
    CATEGORIES,
    WAIT_CATEGORIES,
    analyze_collector,
    annotate_findings,
    dominant_wait_state,
)
from repro.symbiosys.monitor import MonitorConfig

from ..conftest import make_echo_cluster, run_client_calls

_FAULT_PLAN = FaultPlan(
    name="critical-faults",
    wire_rules=[
        # Every first-flight request is lost: retries are guaranteed.
        DropRule(kind="rpc_request", probability=1.0, end=20e-6),
        DelayRule(kind="rpc_response", extra=50e-6, spread=50e-6,
                  probability=0.3),
    ],
    process_faults=[RestartFault(addr="svr", at=1e-3, downtime=0.5e-3)],
)
_RETRY = RetryPolicy(max_attempts=4, timeout=0.5e-3, backoff=0.1e-3)


def run_echo(seed=0, n_calls=12, plan=None, retry=None, monitoring=True):
    world = make_echo_cluster(
        seed=seed, stage=Stage.FULL, plan=plan, retry=retry,
        monitoring=MonitorConfig(interval=25e-6) if monitoring else None,
    )
    results = []

    def one(i):
        try:
            out = yield from world.client.forward("svr", "echo", {"i": i})
            results.append(("ok", out))
        except MargoTimeoutError:
            results.append(("timeout", i))

    for i in range(n_calls):
        world.client.client_ult(one(i), name=f"c{i}")
    assert world.sim.run_until(lambda: len(results) == n_calls, limit=5.0)
    world.cluster.shutdown()
    return world


def assert_exact(report):
    """The tentpole invariant: per request, category durations are
    integers that sum exactly -- not approximately -- to the span."""
    report.check_invariant()
    for bd in report.breakdowns:
        assert set(bd.categories) <= set(CATEGORIES)
        assert all(isinstance(v, int) for v in bd.categories.values())
        assert sum(bd.categories.values()) == bd.total_ps
        # Segments re-tell the same story: per category, segment
        # durations sum to that category's figure.
        per_cat = {}
        for cat, _start, dur in bd.segments:
            per_cat[cat] = per_cat.get(cat, 0) + dur
        for cat, ps in per_cat.items():
            assert ps == bd.categories[cat]


class TestSumToTotalProperty:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_healthy_echo(self, seed):
        world = run_echo(seed=seed)
        report = analyze_collector(
            world.cluster.collector, world.cluster.monitor
        )
        assert report.n_requests > 0
        assert report.n_incomplete == 0
        assert_exact(report)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_under_faults_and_retries(self, seed):
        world = run_echo(seed=seed, n_calls=16, plan=_FAULT_PLAN,
                         retry=_RETRY)
        report = analyze_collector(
            world.cluster.collector, world.cluster.monitor
        )
        assert report.n_requests > 0
        assert_exact(report)

    def test_without_monitor_degrades_not_breaks(self):
        # No scheduler slices: the CQ-wait split falls back to pure
        # backlog, but the invariant still holds exactly.
        world = run_echo(monitoring=False)
        report = analyze_collector(world.cluster.collector, None)
        assert report.n_requests > 0
        assert_exact(report)
        totals = report.category_totals()
        assert totals["progress_starvation"] == 0

    def test_hepnos_service(self):
        from repro.experiments.configs import TABLE_IV
        from repro.experiments.hepnos import run_hepnos_experiment

        result = run_hepnos_experiment(
            TABLE_IV["C5"], events_per_client=32, pipeline_width=16,
            monitoring=MonitorConfig(interval=50e-6),
        )
        report = analyze_collector(result.collector, result.monitor)
        assert report.n_requests > 0
        assert_exact(report)
        # The Fig 11 regime: CQ-side waits dominate batch-1 loads.
        totals = report.category_totals()
        cq = totals["ofi_cq_backlog"] + totals["progress_starvation"]
        assert cq > 0


class TestCategories:
    def test_concurrent_requests_queue_on_one_handler_pool(self):
        world = run_echo(n_calls=20)
        report = analyze_collector(
            world.cluster.collector, world.cluster.monitor
        )
        totals = report.category_totals()
        assert totals["handler_pool_queue"] > 0
        # Blame names other requests' RPCs as pool occupants.
        blamed = {
            e.occupant
            for bd in report.breakdowns
            for e in bd.blame
            if e.category == "handler_pool_queue"
        }
        assert "echo" in blamed

    def test_retry_backoff_is_aggregate(self):
        world = run_echo(n_calls=16, plan=_FAULT_PLAN, retry=_RETRY)
        report = analyze_collector(
            world.cluster.collector, world.cluster.monitor
        )
        retries = world.cluster.collector.all_retries()
        assert retries, "fault plan must force at least one retry"
        assert report.retry_by_op
        # Per-request categories never carry backoff (each attempt is
        # its own request id); it is an aggregate per-operation figure.
        for bd in report.breakdowns:
            assert bd.categories["retry_backoff"] == 0


class TestFindingAnnotation:
    def test_findings_carry_dominant_wait_state(self):
        world = run_echo(n_calls=24)
        monitor = world.cluster.monitor
        report = analyze_collector(world.cluster.collector, monitor)
        annotated = annotate_findings(monitor.findings, report)
        assert len(annotated) == len(monitor.findings)
        for f in annotated:
            assert f.wait_state in WAIT_CATEGORIES

    def test_fallback_when_no_breakdown_overlaps(self):
        world = run_echo(n_calls=8)
        monitor = world.cluster.monitor
        # A finding far outside every span window uses the detector's
        # fallback mapping rather than overlap evidence.
        from repro.symbiosys.monitor import Finding

        f = Finding(time=99.0, detector="progress_starvation",
                    process="svr", message="late", value=1.0)
        report = analyze_collector(world.cluster.collector, monitor)
        assert dominant_wait_state(f, report.breakdowns) == \
            "progress_starvation"

    def test_autotune_detectors_fall_back_and_remedies_get_none(self):
        world = run_echo(n_calls=8)
        report = analyze_collector(
            world.cluster.collector, world.cluster.monitor
        )
        from repro.symbiosys.monitor import Finding

        during = report.breakdowns[0].start_true
        findings = [
            Finding(99.0, "ofi_reads_pegged", "cli", "late"),
            Finding(99.0, "completion_backlog", "cli", "late"),
            # A remedy is an action, not a wait -- even amid requests.
            Finding(during, "autotune", "cli", "OFI_max_events 16 -> 32"),
        ]
        annotated = annotate_findings(findings, report)
        assert [f.wait_state for f in annotated] == [
            "ofi_cq_backlog",
            "progress_starvation",
            "",
        ]


class TestDeterminism:
    def test_same_seed_same_breakdowns(self):
        reports = []
        for _ in range(2):
            world = run_echo(seed=5, n_calls=10)
            reports.append(analyze_collector(
                world.cluster.collector, world.cluster.monitor
            ))
        a, b = reports
        assert len(a.breakdowns) == len(b.breakdowns)
        for x, y in zip(a.breakdowns, b.breakdowns):
            assert x == y
