"""Invariant-checker behaviour: clean runs stay silent, corrupted runs
are caught, and a caught scheduler corruption shrinks to a minimal
reproducing config (the tentpole acceptance path)."""

import pytest

from repro.faults import DelayRule, DropRule, FaultPlan
from repro.validate import (
    InvariantMonitor,
    InvariantViolationError,
    ValidationConfig,
)
from repro.validate.fuzz import (
    FailureReport,
    FuzzConfig,
    load_repro,
    shrink,
    write_repro,
)
from repro.validate.workloads import run_workload

from tests.conftest import make_echo_cluster


def run_validated_echo(*, validate=True, n_calls=3, **cluster_kw):
    world = make_echo_cluster(validate=validate, **cluster_kw)
    results = []

    def body():
        for i in range(n_calls):
            out = yield from world.client.forward("svr", "echo", {"i": i})
            results.append(out)

    world.client.client_ult(body(), name="load")
    assert world.sim.run_until(lambda: len(results) == n_calls, limit=2.0)
    return world, results


def test_clean_run_records_no_violations():
    world, results = run_validated_echo()
    world.cluster.shutdown()  # strict: raises if anything was recorded
    assert len(results) == 3
    assert world.cluster.validator.ok
    assert world.cluster.leaked_events == 0


def test_validated_run_is_a_pure_observer():
    """Validation must not perturb the run: same makespan either way."""

    def makespan(validate):
        world, _ = run_validated_echo(validate=validate)
        at = world.sim.now
        world.cluster.shutdown()
        return at

    assert makespan(True) == makespan(False)


def test_terminated_ult_rescheduled_is_caught():
    artifacts = run_workload("echo", seed=3, scale=1, _corrupt_sched=True)
    kinds = {v.invariant for v in artifacts.violations}
    assert "ult_state_machine" in kinds
    offender = next(
        v for v in artifacts.violations if v.invariant == "ult_state_machine"
    )
    assert "terminated ULT scheduled again" in offender.message
    assert offender.process  # localized to a process
    assert offender.callpath  # and to a ULT name


def _checked_runtime():
    """A one-ES runtime with no switch cost under a lone scheduler
    checker."""
    from types import SimpleNamespace

    from repro.argobots import AbtRuntime
    from repro.sim import Simulator
    from repro.validate.invariants import _SchedChecker

    sim = Simulator()
    rt = AbtRuntime(sim, ctx_switch_cost=0.0)
    pool = rt.create_pool()
    rt.create_xstream(pool)
    monitor = InvariantMonitor(sim, config=ValidationConfig(strict=False))
    rt.add_sched_observer(_SchedChecker(monitor, SimpleNamespace(addr="p")))
    return sim, rt, pool, monitor


def test_same_instant_redispatch_of_a_terminated_ult_is_caught():
    """With no switch cost, a ULT re-queued at the instant it terminates
    runs again at that instant: its second slice has the timestamps of a
    legal termination slice, so only the dispatch state can flag it."""
    sim, rt, pool, monitor = _checked_runtime()

    def done():
        return
        yield  # pragma: no cover - makes this function a generator

    def requeue(ult):
        yield from rt.join(ult)
        pool.push(ult)

    victim = rt.spawn(done(), pool, name="victim")
    rt.spawn(requeue(victim), pool, name="requeue")
    sim.run()
    assert victim.finished_at == sim.now == 0.0
    [violation] = monitor.violations
    assert violation.invariant == "ult_state_machine"
    assert violation.message == "terminated ULT scheduled again"
    assert (violation.time, violation.callpath) == (0.0, "victim")


def test_dispatch_of_a_blocked_ult_is_caught():
    from repro.argobots import WaitEventual

    sim, rt, pool, monitor = _checked_runtime()

    def waiter():
        yield WaitEventual(rt.eventual())

    def requeue(ult):
        pool.push(ult)  # still blocked on its eventual
        return
        yield  # pragma: no cover - makes this function a generator

    victim = rt.spawn(waiter(), pool, name="victim")
    rt.spawn(requeue(victim), pool, name="requeue")
    sim.run()
    [violation] = monitor.violations
    assert violation.invariant == "ult_state_machine"
    assert violation.message == "ULT dispatched while blocked, expected ready"
    assert violation.callpath == "victim"


def test_corrupted_scheduler_transition_shrinks_to_minimal_config(tmp_path):
    """The acceptance path: a scheduler corruption is caught by the
    invariant monitor and the failing config shrinks to the minimal
    reproducer (no fault plan, scale 1), written as a repro file."""
    plan = FaultPlan(
        name="noise",
        wire_rules=[
            DropRule(dst="echo-svr", kind="rpc_request", probability=0.05),
            DelayRule(dst="echo-svr", extra=50e-6, probability=0.1),
        ],
    )
    config = FuzzConfig(seed=5, workload="echo", scale=4, plan=plan)

    def is_failing(cfg):
        artifacts = run_workload(
            cfg.workload,
            seed=cfg.seed,
            preset=cfg.preset,
            scale=cfg.scale,
            plan=cfg.plan,
            _corrupt_sched=True,
        )
        return any(
            v.invariant == "ult_state_machine" for v in artifacts.violations
        )

    assert is_failing(config)
    shrunk = shrink(config, is_failing)
    assert shrunk.plan is None  # every fault rule was irrelevant
    assert shrunk.scale == 1  # and so was the workload size
    assert is_failing(shrunk)

    repro = tmp_path / "repro.json"
    report = FailureReport(
        config=config,
        kind="invariant",
        detail="ult_state_machine",
        shrunk=shrunk,
    )
    write_repro(report, str(repro))
    assert load_repro(str(repro)) == shrunk


def test_pool_tamper_breaks_conservation():
    world, _ = run_validated_echo(
        validate=ValidationConfig(strict=False)
    )
    # Fake a push that never happened: counter moves, depth does not.
    world.server.primary_pool.total_pushed += 1
    world.cluster.shutdown()
    violations = world.cluster.validator.violations
    assert any(v.invariant == "pool_conservation" for v in violations)
    offender = next(
        v for v in violations if v.invariant == "pool_conservation"
    )
    assert offender.process == "svr"


def test_undrained_posted_handle_is_flagged_strictly():
    world = make_echo_cluster(validate=True)
    failed = []

    def body():
        try:
            yield from world.client.forward("svr", "echo", {"i": 0})
        except Exception as exc:  # noqa: BLE001 - recording only
            failed.append(exc)

    # Crash the server before the request lands: the posted handle can
    # never complete and the drain check must flag it.
    world.server.crash()
    world.client.client_ult(body(), name="doomed")
    world.sim.run(until=world.sim.now + 5e-3)
    with pytest.raises(InvariantViolationError) as excinfo:
        world.cluster.shutdown()
    assert any(
        v.invariant == "drain_on_exit" for v in excinfo.value.violations
    )


def test_fault_campaigns_relax_drain_checks():
    """With an injector armed, stranded handles are expected outcomes."""
    from repro.faults import CrashFault

    plan = FaultPlan(
        name="kill", process_faults=[CrashFault(addr="svr", at=1e-6)]
    )
    world = make_echo_cluster(plan=plan, validate=True)
    failed = []

    def body():
        try:
            yield from world.client.forward("svr", "echo", {"i": 0}, timeout=1e-3)
        except Exception as exc:  # noqa: BLE001 - recording only
            failed.append(exc)

    world.client.client_ult(body(), name="doomed")
    world.sim.run_until(lambda: failed, limit=1.0)
    world.cluster.shutdown()  # must not raise despite the stranded state
    assert failed


def test_clock_monotonicity_checker_unit():
    from repro.sim import Simulator

    monitor = InvariantMonitor(Simulator(), config=ValidationConfig(strict=False))
    monitor.observe_time(1.0, "p")
    monitor.observe_time(2.0, "p")
    assert monitor.ok
    monitor.observe_time(1.5, "p", callpath="rewind")
    assert not monitor.ok
    (violation,) = monitor.violations
    assert violation.invariant == "clock_monotonicity"
    assert violation.callpath == "rewind"


def test_rpc_lifecycle_checker_unit():
    from repro.mercury.core import HGHandle
    from repro.sim import Simulator
    from repro.validate.invariants import _RpcLifecycleChecker, _TARGET_ORDER

    class _FakeMi:
        addr = "svr"

    monitor = InvariantMonitor(Simulator(), config=ValidationConfig(strict=False))
    checker = _RpcLifecycleChecker(monitor, _FakeMi())
    handle = HGHandle(1, "echo", "cli", "svr", is_origin=False)
    handle.marks.update({"t4": 1.0, "t5": 2.0, "t8": 1.5})  # t8 < t5
    checker._check_order(handle, _TARGET_ORDER)
    assert not monitor.ok
    (violation,) = monitor.violations
    assert violation.invariant == "rpc_lifecycle"
    assert "t8" in violation.message


def test_violation_report_is_readable():
    artifacts = run_workload("echo", seed=3, scale=1, _corrupt_sched=True)
    assert artifacts.violations
    line = artifacts.violations[0].render()
    assert "ms" in line and "ult_state_machine" in line
