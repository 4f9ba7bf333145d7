"""FaultInjector behaviour through the full stack (fabric + Margo)."""

import pytest

from repro.faults import (
    DelayRule,
    DropRule,
    DuplicateRule,
    FaultPlan,
    HandlerFaultRule,
    RestartFault,
)
from repro.margo import MargoTimeoutError, RemoteRpcError, RetryPolicy

from .conftest import make_echo_cluster


def _call(world, payload, timeout=None, collect=None):
    """Spawn one echo forward; returns the shared results list."""
    results = collect if collect is not None else []

    def body():
        try:
            out = yield from world.client.forward(
                "svr", "echo", payload, timeout=timeout
            )
            results.append(("ok", out["echo"], world.sim.now))
        except MargoTimeoutError:
            results.append(("timeout", None, world.sim.now))
        except RemoteRpcError as exc:
            results.append(("remote-error", exc.detail, world.sim.now))

    world.client.client_ult(body())
    return results


def test_drop_rule_loses_requests():
    plan = FaultPlan(wire_rules=[DropRule(kind="rpc_request", probability=1.0)])
    world = make_echo_cluster(plan=plan)
    results = _call(world, {"i": 1}, timeout=1e-3)
    world.sim.run_until(lambda: results, limit=0.1)
    assert results[0][0] == "timeout"
    assert world.injector.counters["drop"] >= 1
    # The timed-out handle was cancelled and cleaned up.
    assert len(world.client.hg._posted) == 0


def test_duplicate_rule_is_at_least_once_hazard():
    """Duplicated requests run the handler twice; the client consumes one
    response and counts the other as a dropped late response."""
    plan = FaultPlan(
        wire_rules=[DuplicateRule(kind="rpc_request", probability=1.0)]
    )
    world = make_echo_cluster(plan=plan)
    results = _call(world, {"i": 2})
    world.sim.run_until(lambda: results, limit=0.1)
    world.sim.run(until=world.sim.now + 5e-3)  # let the duplicate land
    assert results[0][:2] == ("ok", {"i": 2})
    assert world.injector.counters["duplicate"] >= 1
    counters = world.client.resilience_counters()
    assert counters["num_late_responses_dropped"] >= 1


def test_delay_rule_adds_latency():
    baseline = make_echo_cluster()
    r0 = _call(baseline, {})
    baseline.sim.run_until(lambda: r0, limit=0.1)
    base_latency = r0[0][2]

    plan = FaultPlan(
        wire_rules=[DelayRule(kind="rpc_request", extra=1e-3, probability=1.0)]
    )
    world = make_echo_cluster(plan=plan)
    r1 = _call(world, {})
    world.sim.run_until(lambda: r1, limit=0.1)
    assert r1[0][0] == "ok"
    assert r1[0][2] - base_latency >= 1e-3 - 1e-9
    assert world.injector.counters["delay"] >= 1


def test_crash_restart_cycle():
    plan = FaultPlan(
        process_faults=[
            RestartFault(addr="svr", at=2e-3, downtime=2e-3, warmup=1e-3)
        ]
    )
    world = make_echo_cluster(plan=plan)

    timeline = []

    def body():
        out = yield from world.client.forward("svr", "echo", {"n": 1})
        timeline.append(("before", out["echo"], world.sim.now))
        # Land mid-crash: the server is down until t=4ms (+1ms warmup).
        yield from world.client.rt.sleep(2.5e-3 - world.sim.now)
        try:
            yield from world.client.forward("svr", "echo", {"n": 2}, timeout=1e-3)
            timeline.append(("during", None, world.sim.now))
        except MargoTimeoutError:
            timeline.append(("during-timeout", None, world.sim.now))
        # Wait for the restart + warmup to complete, then try again.
        yield from world.client.rt.sleep(6e-3 - world.sim.now)
        out = yield from world.client.forward("svr", "echo", {"n": 3}, timeout=50e-3)
        timeline.append(("after", out["echo"], world.sim.now))

    world.client.client_ult(body())
    assert world.sim.run_until(lambda: len(timeline) == 3, limit=0.5)
    assert timeline[0][0] == "before"
    assert timeline[1][0] == "during-timeout"
    assert timeline[2][:2] == ("after", {"n": 3})
    kinds = [k for _, k, *_ in world.injector.event_trace()]
    assert "crash" in kinds and "restart" in kinds
    assert not world.server.crashed


def test_crashed_server_discards_deliveries():
    plan = FaultPlan(process_faults=[RestartFault(addr="svr", at=1e-3, downtime=1.0)])
    world = make_echo_cluster(plan=plan)
    world.sim.run(until=2e-3)  # crash has fired
    assert world.server.crashed
    results = _call(world, {}, timeout=1e-3)
    world.sim.run_until(lambda: results, limit=0.1)
    assert results[0][0] == "timeout"
    assert world.server.endpoint.total_discarded >= 1


def test_hang_services_requests_late_not_never():
    """A restarted server hangs through its warm-up: a request that
    reaches it then waits in the completion queue and is serviced once
    the warm-up ends."""
    plan = FaultPlan(
        process_faults=[
            RestartFault(addr="svr", at=0.0, downtime=1e-3, warmup=5e-3)
        ]
    )
    world = make_echo_cluster(plan=plan)
    results = []

    def body():
        yield from world.client.rt.sleep(2e-3)
        out = yield from world.client.forward("svr", "echo", {"q": 1})
        results.append((out["echo"], world.sim.now))

    world.client.client_ult(body())
    world.sim.run_until(lambda: results, limit=0.1)
    echoed, at = results[0]
    assert echoed == {"q": 1}
    assert at >= 6e-3  # serviced only after the warm-up ended
    assert world.injector.counters["restart"] == 1


def test_handler_error_injection_surfaces_as_remote_error():
    plan = FaultPlan(
        handler_rules=[HandlerFaultRule(rpc="echo", error_probability=1.0)]
    )
    world = make_echo_cluster(plan=plan)
    results = _call(world, {})
    world.sim.run_until(lambda: results, limit=0.1)
    status, detail, _ = results[0]
    assert status == "remote-error"
    assert "injected fault" in detail
    assert world.injector.counters["handler_error"] >= 1
    # The server survives injected handler faults like real ones.
    assert world.server.handler_errors


def test_handler_stall_injection_burns_time():
    baseline = make_echo_cluster()
    r0 = _call(baseline, {})
    baseline.sim.run_until(lambda: r0, limit=0.1)

    plan = FaultPlan(
        handler_rules=[
            HandlerFaultRule(rpc="echo", stall_probability=1.0, stall=2e-3)
        ]
    )
    world = make_echo_cluster(plan=plan)
    r1 = _call(world, {})
    world.sim.run_until(lambda: r1, limit=0.1)
    assert r1[0][0] == "ok"
    assert r1[0][2] >= r0[0][2] + 2e-3
    assert world.injector.counters["handler_stall"] == 1


def test_retry_rides_out_faults():
    """A retry policy turns a lossy wire into degraded-but-working."""
    plan = FaultPlan(
        wire_rules=[
            DropRule(kind="rpc_request", probability=0.5, end=1.0),
        ]
    )
    retry = RetryPolicy(max_attempts=6, timeout=1e-3, backoff=0.2e-3)
    world = make_echo_cluster(plan=plan, retry=retry, seed=5)
    results = []
    for i in range(10):
        _call(world, {"i": i}, collect=results)
    assert world.sim.run_until(lambda: len(results) == 10, limit=1.0)
    assert all(status == "ok" for status, _, _ in results)
    counters = world.client.resilience_counters()
    assert counters["num_forward_timeouts"] >= 1
    assert counters["num_forward_retries"] >= 1


def test_attach_rejects_duplicate_process():
    world = make_echo_cluster(plan=FaultPlan())
    with pytest.raises(ValueError):
        world.injector.attach(world.server)


def test_fault_events_record_no_cookies():
    """Event details must only contain stable identifiers (addresses,
    rpc names, kinds) so traces compare across runs in one process."""
    plan = FaultPlan(
        wire_rules=[DropRule(kind="rpc_request", probability=1.0)],
        handler_rules=[HandlerFaultRule(rpc="echo", error_probability=1.0)],
    )
    world = make_echo_cluster(plan=plan)
    results = _call(world, {}, timeout=1e-3)
    world.sim.run_until(lambda: results, limit=0.1)
    for entry in world.injector.event_trace():
        for item in entry[1:]:
            assert isinstance(item, (str, int, float))
            if isinstance(item, str):
                assert not item.startswith("cookie")
