"""Failure injection: message loss from a fault plan's ``DropRule``,
survived via the Margo timeout + retry pattern."""

from repro.cluster import Cluster
from repro.faults import DropRule, FaultPlan
from repro.margo import MargoTimeoutError


def make_lossy_world(rule, seed=11):
    """An echo server and a client on two nodes, losing the messages
    that ``rule`` (a ``DropRule``) matches."""
    plan = FaultPlan(wire_rules=[rule])
    cluster = Cluster(seed=seed, stage=None, fault_plan=plan)
    server = cluster.process("svr", "n0", n_handler_es=2)
    client = cluster.process("cli", "n1")
    executions = []

    def echo(mi, handle):
        inp = yield from mi.get_input(handle)
        executions.append(inp)
        yield from mi.respond(handle, inp)

    server.register("echo", echo)
    client.register("echo")
    return cluster, client, executions


def test_lossless_fabric_drops_nothing():
    cluster, client, _ = make_lossy_world(DropRule(probability=0.0))
    done = []

    def body():
        for i in range(10):
            out = yield from client.forward("svr", "echo", {"i": i})
            done.append(out["i"])

    with cluster:
        client.client_ult(body())
        cluster.sim.run_until(lambda: len(done) == 10, limit=1.0)
    assert done == list(range(10))
    assert cluster.fabric.total_dropped == 0
    assert cluster.fault_events() == []


def test_lossy_fabric_without_timeout_hangs_request():
    """A dropped request with no timeout leaves the caller blocked --
    exactly why production clients use margo_forward_timed."""
    cluster, client, executions = make_lossy_world(DropRule(kind="rpc_request"))
    done = []

    def body():
        out = yield from client.forward("svr", "echo", {"x": 1})
        done.append(out)

    with cluster:
        client.client_ult(body())
        cluster.sim.run(until=0.05)
        assert cluster.fabric.total_dropped == 1
        assert executions == []
        assert done == []


def test_retry_loop_survives_heavy_loss():
    cluster, client, _ = make_lossy_world(DropRule(probability=0.5), seed=7)
    outcome = []

    def body():
        for i in range(5):
            for attempt in range(50):
                try:
                    out = yield from client.forward(
                        "svr", "echo", {"i": i}, timeout=2e-3
                    )
                    outcome.append((out["i"], attempt))
                    break
                except MargoTimeoutError:
                    continue
            else:
                outcome.append((i, "gave-up"))

    with cluster:
        client.client_ult(body())
        cluster.sim.run_until(lambda: len(outcome) == 5, limit=5.0)
    assert [i for i, _ in outcome] == list(range(5))
    assert all(a != "gave-up" for _, a in outcome)
    # The plan really did lose traffic along the way.
    assert cluster.fabric.total_dropped > 0


def test_loss_is_deterministic_per_seed():
    runs = []
    for _ in range(2):
        cluster, client, _ = make_lossy_world(DropRule(probability=0.5), seed=21)
        done = []

        def body():
            for i in range(10):
                try:
                    yield from client.forward("svr", "echo", {}, timeout=1e-3)
                    done.append(True)
                except MargoTimeoutError:
                    done.append(False)

        with cluster:
            client.client_ult(body())
            cluster.sim.run_until(lambda: len(done) == 10, limit=1.0)
        runs.append((cluster.fault_events(), tuple(done)))
    assert runs[0] == runs[1]
    assert False in runs[0][1] and True in runs[0][1]


def test_response_loss_also_covered():
    """Losses can hit the response leg; the retry pattern still
    converges and the server tolerates duplicate executions."""
    # Every response sent in the first 5 ms is lost: the attempts at
    # 0, 2 and 4 ms time out after running the handler.
    cluster, client, executions = make_lossy_world(
        DropRule(kind="rpc_response", end=5e-3)
    )
    results = []

    def body():
        for attempt in range(100):
            try:
                out = yield from client.forward(
                    "svr", "echo", {"v": 7}, timeout=2e-3
                )
                results.append((out, attempt))
                return
            except MargoTimeoutError:
                continue

    with cluster:
        client.client_ult(body())
        cluster.sim.run_until(lambda: results, limit=5.0)
    (out, attempt) = results[0]
    assert out == {"v": 7}
    assert attempt == 3
    assert len(executions) == attempt + 1
    # (time, fault, src, dst, message kind) per fired fault.
    assert [e[1:] for e in cluster.fault_events()] == [
        ("drop", "svr", "cli", "rpc_response")
    ] * 3
