"""RetryPolicy semantics and the forward retry loop."""

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.margo import (
    Instrumentation,
    MargoTimeoutError,
    RemoteRpcError,
    RetryPolicy,
)

from .conftest import echo_handler


# -- policy unit tests --------------------------------------------------------


def test_delay_is_exponential_and_clamped():
    p = RetryPolicy(backoff=1e-3, backoff_factor=2.0, max_backoff=10e-3)
    assert p.delay(1) == pytest.approx(1e-3)
    assert p.delay(2) == pytest.approx(2e-3)
    assert p.delay(4) == pytest.approx(8e-3)
    assert p.delay(10) == pytest.approx(10e-3)  # clamped


def test_delay_jitter_stays_in_bounds():
    p = RetryPolicy(backoff=1e-3, backoff_factor=1.0, jitter=0.5)
    rng = np.random.default_rng(0)
    for _ in range(100):
        d = p.delay(1, rng)
        assert 0.5e-3 <= d <= 1.5e-3
    # No rng supplied -> jitter is skipped, not an error.
    assert p.delay(1) == pytest.approx(1e-3)


def test_delay_attempt_is_one_based():
    with pytest.raises(ValueError):
        RetryPolicy().delay(0)


@pytest.mark.parametrize(
    "kw",
    [
        {"max_attempts": 0},
        {"timeout": 0.0},
        {"backoff": -1e-3},
        {"backoff_factor": 0.5},
        {"jitter": 1.5},
    ],
)
def test_policy_validation(kw):
    with pytest.raises(ValueError):
        RetryPolicy(**kw)


def test_policy_is_keyword_only_and_replaceable():
    with pytest.raises(TypeError):
        RetryPolicy(5)
    p = RetryPolicy(max_attempts=2)
    q = p.replace(timeout=5.0)
    assert q.max_attempts == 2 and q.timeout == 5.0
    assert p.timeout == 1.0


def test_target_for_rotates_through_failover_ring():
    p = RetryPolicy(failover=["b", "c"])  # list normalized to tuple
    assert p.failover == ("b", "c")
    assert [p.target_for("a", i) for i in range(1, 5)] == ["a", "b", "c", "a"]
    no_failover = RetryPolicy()
    assert no_failover.target_for("a", 3) == "a"


# -- integration: the forward retry loop --------------------------------------


def _slow_then_fast_handler(stalls):
    """Echo handler that oversleeps for its first ``stalls`` invocations."""
    state = {"calls": 0}

    def handler(mi, handle):
        state["calls"] += 1
        inp = yield from mi.get_input(handle)
        if state["calls"] <= stalls:
            yield from mi.rt.sleep(20e-3)
        yield from mi.respond(handle, {"echo": inp})

    return handler, state


def _one_forward(cluster, client, target, results, *, timeout=None, retry=None):
    def body():
        try:
            out = yield from client.forward(
                target, "echo", {"x": 1}, timeout=timeout, retry=retry
            )
            results.append(("ok", out))
        except (MargoTimeoutError, RemoteRpcError) as exc:
            results.append(("err", exc))

    client.client_ult(body())


def test_retry_recovers_from_slow_server():
    with Cluster(seed=0, stage=None) as cluster:
        handler, state = _slow_then_fast_handler(stalls=2)
        server = cluster.process("svr", "nA", n_handler_es=2)
        server.register("echo", handler)
        client = cluster.process("cli", "nB")
        client.register("echo")
        policy = RetryPolicy(max_attempts=4, timeout=1e-3, backoff=0.1e-3)
        results = []
        _one_forward(cluster, client, "svr", results, retry=policy)
        assert cluster.run_until(lambda: results, limit=1.0)
        status, out = results[0]
        assert status == "ok" and out == {"echo": {"x": 1}}
        assert state["calls"] == 3
        counters = client.resilience_counters()
        assert counters["num_forward_timeouts"] == 2
        assert counters["num_forward_retries"] == 2
        assert counters["num_failed_over_forwards"] == 0


def test_retry_exhaustion_raises_timeout():
    with Cluster(seed=0, stage=None) as cluster:
        handler, state = _slow_then_fast_handler(stalls=99)
        server = cluster.process("svr", "nA", n_handler_es=2)
        server.register("echo", handler)
        client = cluster.process("cli", "nB")
        client.register("echo")
        policy = RetryPolicy(max_attempts=2, timeout=1e-3, backoff=0.1e-3)
        results = []
        _one_forward(cluster, client, "svr", results, retry=policy)
        assert cluster.run_until(lambda: results, limit=1.0)
        status, exc = results[0]
        assert status == "err" and isinstance(exc, MargoTimeoutError)
        counters = client.resilience_counters()
        assert counters["num_forward_timeouts"] == 2
        assert counters["num_forward_retries"] == 1


def test_failover_reaches_backup_server():
    with Cluster(seed=0, stage=None) as cluster:
        stuck, _ = _slow_then_fast_handler(stalls=99)
        primary = cluster.process("primary", "nA", n_handler_es=1)
        primary.register("echo", stuck)
        backup = cluster.process("backup", "nB", n_handler_es=1)
        backup.register("echo", echo_handler)
        client = cluster.process("cli", "nC")
        client.register("echo")
        policy = RetryPolicy(
            max_attempts=2, timeout=1e-3, backoff=0.1e-3, failover=("backup",)
        )
        results = []
        _one_forward(cluster, client, "primary", results, retry=policy)
        assert cluster.run_until(lambda: results, limit=1.0)
        status, out = results[0]
        assert status == "ok" and out == {"echo": {"x": 1}}
        counters = client.resilience_counters()
        assert counters["num_failed_over_forwards"] == 1
        assert counters["num_forward_retries"] == 1


def _error_then_ok_handler(errors):
    state = {"calls": 0}

    def handler(mi, handle):
        state["calls"] += 1
        inp = yield from mi.get_input(handle)
        if state["calls"] <= errors:
            raise ValueError("transient")
        yield from mi.respond(handle, {"echo": inp})

    return handler, state


def test_remote_errors_are_not_retried():
    """A remote handler error is not transient: it is raised at the
    origin after one call, whatever attempts the policy has left."""
    with Cluster(seed=0, stage=None) as cluster:
        handler, state = _error_then_ok_handler(errors=2)
        server = cluster.process("svr", "nA", n_handler_es=1)
        server.register("echo", handler)
        client = cluster.process("cli", "nB")
        client.register("echo")
        policy = RetryPolicy(
            max_attempts=4,
            timeout=10e-3,
            backoff=0.1e-3,
        )
        results = []
        _one_forward(cluster, client, "svr", results, retry=policy)
        assert cluster.run_until(lambda: results, limit=1.0)
        status, payload = results[0]
        assert status == "err" and isinstance(payload, RemoteRpcError)
        assert state["calls"] == 1


def test_per_call_policy_overrides_instance_default():
    with Cluster(seed=0, stage=None, retry=RetryPolicy(max_attempts=1, timeout=1e-3)) as cluster:
        handler, state = _slow_then_fast_handler(stalls=1)
        server = cluster.process("svr", "nA", n_handler_es=2)
        server.register("echo", handler)
        client = cluster.process("cli", "nB")
        client.register("echo")
        results = []
        # Instance default (1 attempt) would fail; the per-call policy wins.
        _one_forward(
            cluster, client, "svr", results,
            retry=RetryPolicy(max_attempts=3, timeout=1e-3, backoff=0.1e-3),
        )
        assert cluster.run_until(lambda: results, limit=1.0)
        assert results[0][0] == "ok"
        assert state["calls"] == 2


def test_explicit_timeout_overrides_policy_timeout():
    with Cluster(seed=0, stage=None) as cluster:
        handler, _ = _slow_then_fast_handler(stalls=99)
        server = cluster.process("svr", "nA", n_handler_es=1)
        server.register("echo", handler)
        client = cluster.process("cli", "nB")
        client.register("echo")
        policy = RetryPolicy(max_attempts=1, timeout=50e-3)
        results = []
        _one_forward(
            cluster, client, "svr", results, timeout=1e-3, retry=policy
        )
        assert cluster.run_until(lambda: results, limit=1.0)
        status, exc = results[0]
        assert status == "err"
        assert exc.timeout == pytest.approx(1e-3)


def test_retry_hooks_fire_on_instrumentation():
    class Recorder(Instrumentation):
        def __init__(self):
            self.timeouts = []
            self.retries = []

        def on_forward_timeout(self, mi, handle, ult, timeout):
            self.timeouts.append((mi.addr, timeout))

        def on_forward_retry(self, mi, handle, ult, attempt, delay, target):
            self.retries.append((attempt, target))

    recorder = Recorder()
    with Cluster(seed=0, stage=None) as cluster:
        handler, _ = _slow_then_fast_handler(stalls=1)
        server = cluster.process(
            "svr", "nA", n_handler_es=2, instrumentation=recorder
        )
        server.register("echo", handler)
        client = cluster.process("cli", "nB", instrumentation=recorder)
        client.register("echo")
        policy = RetryPolicy(max_attempts=3, timeout=1e-3, backoff=0.1e-3)
        results = []
        _one_forward(cluster, client, "svr", results, retry=policy)
        assert cluster.run_until(lambda: results, limit=1.0)
        assert results[0][0] == "ok"
    assert recorder.timeouts == [("cli", pytest.approx(1e-3))]
    assert recorder.retries == [(1, "svr")]


def test_answered_forward_leaves_no_handle_in_the_queue():
    """Once a timed forward is answered, its timeout entry stays queued
    until the deadline but pins neither the handle nor the eventual."""
    from repro.argobots import Eventual
    from repro.mercury.core import HGHandle

    with Cluster(seed=0, stage=None) as cluster:
        server = cluster.process("svr", "nA", n_handler_es=1)
        server.register("echo", echo_handler)
        client = cluster.process("cli", "nB")
        client.register("echo")
        results = []
        _one_forward(cluster, client, "svr", results, timeout=1.0)
        assert cluster.run_until(lambda: results, limit=0.5)
        assert results[0][0] == "ok"
        entries = [
            args for _, _, fn, args in cluster.sim._queue
            if fn == client.rt._on_wait_timeout
        ]
        # The finished caller's timeout has not fired yet.
        assert any(ult.terminated for ult, _ in entries)
        for _, _, fn, args in cluster.sim._queue:
            held = [getattr(fn, "__self__", fn), *args]
            assert not any(isinstance(o, (Eventual, HGHandle)) for o in held)


def test_jittered_backoff_delays_are_pinned():
    """Each process draws its backoff jitter from its own stream,
    ``margo.{addr}``, seeded from the cluster seed and the name alone;
    the stream is made at the first jittered backoff, so the server,
    which never retries, never gets one.  The delays are pinned, so a
    change to how or when the streams are made that moves a draw fails
    here."""

    class Recorder(Instrumentation):
        def __init__(self):
            self.retries = []

        def on_forward_retry(self, mi, handle, ult, attempt, delay, target):
            self.retries.append((mi.addr, attempt, delay))

    recorder = Recorder()
    done = []
    with Cluster(seed=3, stage=None) as cluster:
        handler, _ = _slow_then_fast_handler(stalls=5)
        server = cluster.process(
            "svr", "nA", n_handler_es=2, instrumentation=recorder
        )
        server.register("echo", handler)
        policy = RetryPolicy(
            max_attempts=4, timeout=1e-3, backoff=0.1e-3, jitter=0.5
        )
        for c in range(2):
            client = cluster.process(
                f"cli{c}", f"nB{c}", instrumentation=recorder
            )
            client.register("echo")

            def body(client=client):
                yield from client.forward("svr", "echo", {"x": 1}, retry=policy)
                done.append((client.addr, cluster.sim.now))

            client.client_ult(body())
        assert not any(n.startswith("margo.") for n in cluster.rng._streams)
        assert cluster.run_until(lambda: len(done) == 2, limit=1.0)
    assert sorted(recorder.retries) == [
        ("cli0", 1, 9.673836397602836e-05),
        ("cli0", 2, 0.00024288743393329046),
        ("cli1", 1, 6.292804419059341e-05),
        ("cli1", 2, 0.00014274240873459522),
        ("cli1", 3, 0.0005290972063934506),
    ]
    assert done == [("cli0", 0.0023468380479093193), ("cli1", 0.003742786159318639)]
    assert sorted(cluster.rng._streams) == ["margo.cli0", "margo.cli1"]
