"""The four benchmark workloads, driven only through public APIs.

Each workload is a function ``(seed, size) -> Outcome``.  ``size`` is
``"full"`` (the measured shape) or ``"tiny"`` (the self-test shape: the
same code path, a few hundred ops).  Every workload is closed-loop: a
simulated client ULT issues its next request only after the previous
reply arrived.

The functions check the invariant part of their own outputs (every get
returns its put, op counts are exact) and count each op that breaks it
as failed.  The exact simulated outputs go in ``Outcome.outputs``; the
caller compares them with the values recorded at seed 0.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from repro.cluster import Cluster
from repro.experiments.configs import TABLE_IV
from repro.experiments.hepnos import run_hepnos_experiment
from repro.experiments.sonata import run_sonata_experiment
from repro.shard import ShardedKVService
from repro.symbiosys import Stage
from repro.symbiosys.monitor import MonitorConfig
from repro.validate import ValidationConfig

__all__ = ["Outcome", "SIZES", "WORKLOADS"]


@dataclass
class Outcome:
    """What one workload run did, in simulated terms."""

    attempted: int
    failed: int
    #: Exact simulated outputs, compared against the seed-0 record.
    outputs: dict = field(default_factory=dict)


#: Workload shapes.  ``full`` is what the benchmark measures; ``tiny``
#: keeps the self-tests fast.
SIZES: dict[str, dict[str, dict]] = {
    "fleet_n640": {
        "full": dict(servers=640, client_nodes=4, ults=4, keys=20, gets=3),
        "tiny": dict(servers=16, client_nodes=2, ults=2, keys=3, gets=3),
    },
    "hepnos_c5": {
        "full": dict(events_per_client=2048, pipeline_width=64),
        "tiny": dict(events_per_client=96, pipeline_width=8),
    },
    "hepnos_c1": {
        "full": dict(events_per_client=1536),
        "tiny": dict(events_per_client=64),
    },
    "sonata_fig7": {
        "full": dict(n_records=50_000, batch_size=5_000),
        "tiny": dict(n_records=2_000, batch_size=500),
    },
}

def fleet(seed: int, size: str) -> Outcome:
    """A 640-server sharded KV fleet with monitoring and strict
    invariant checking; each client ULT puts its keys one by one and
    reads each back ``gets`` times, verifying the value."""
    p = SIZES["fleet_n640"][size]
    rng = random.Random(seed)
    n_ults = p["client_nodes"] * p["ults"]
    # Fixed-width keys and values, so the seed changes the data but not
    # the amount of work.
    plan = [
        [
            (f"k{u:03d}.{i:03d}.{rng.getrandbits(48):012x}",
             f"{rng.getrandbits(128):032x}")
            for i in range(p["keys"])
        ]
        for u in range(n_ults)
    ]
    tally = {"ok": 0, "failed": 0, "live": n_ults}
    with Cluster(
        seed=seed,
        stage=Stage.FULL,
        monitoring=MonitorConfig(interval=500e-6),
        validate=ValidationConfig(strict=True),
    ) as cluster:
        service = ShardedKVService.deploy(cluster, p["servers"], n_handler_es=1)
        done = cluster.sim.event("fleet-done")

        def client(router, pairs):
            for key, value in pairs:
                ret = yield from router.put(key, value)
                tally["ok" if ret == 0 else "failed"] += 1
                for _ in range(p["gets"]):
                    got = yield from router.get(key)
                    tally["ok" if got == value else "failed"] += 1
            tally["live"] -= 1
            if tally["live"] == 0:
                done.succeed(cluster.sim.now)

        for c in range(p["client_nodes"]):
            mi = cluster.process(f"cli{c}", f"cnode{c}")
            router = service.make_router(mi)
            for u in range(p["ults"]):
                mi.client_ult(client(router, plan[c * p["ults"] + u]), f"u{u}")
        if not cluster.run_until_event(done, limit=10.0):
            raise RuntimeError("fleet clients did not finish")
    attempted = n_ults * p["keys"] * (1 + p["gets"])
    done_ops = tally["ok"] + tally["failed"]
    failed = tally["failed"] + (attempted - done_ops)
    if cluster.leaked_events:
        failed = attempted
    return Outcome(
        attempted=attempted,
        failed=failed,
        outputs={"ops_completed": tally["ok"], "makespan": done.value},
    )


def _hepnos(name: str, seed: int, **kw):
    """Run one Table IV configuration; returns the outcome and the
    experiment result for the caller's own outputs."""
    config = TABLE_IV[name]
    result = run_hepnos_experiment(config, seed=seed, **kw)
    attempted = config.total_clients * kw["events_per_client"]
    outputs = {
        "events_stored": result.events_stored,
        "rpcs_issued": result.rpcs_issued,
        "makespan": result.makespan,
    }
    return Outcome(
        attempted=attempted,
        failed=max(0, attempted - result.events_stored),
        outputs=outputs,
    ), result


def hepnos_c5(seed: int, size: str) -> Outcome:
    """Table IV C5 (batch 1, the Fig 11/12 CQ-starvation config) with
    the online monitor attached: many tiny RPCs."""
    outcome, result = _hepnos(
        "C5", seed, monitoring=MonitorConfig(), **SIZES["hepnos_c5"][size]
    )
    if result.rpcs_issued != outcome.attempted:
        # Batch 1 means exactly one RPC per event.
        outcome.failed = outcome.attempted
    outcome.outputs["unaccounted_fraction"] = result.unaccounted_fraction
    return outcome


def hepnos_c1(seed: int, size: str) -> Outcome:
    """Table IV C1 (32 clients, batch 1024): memory- and backend-heavy."""
    outcome, result = _hepnos("C1", seed, **SIZES["hepnos_c1"][size])
    del outcome.outputs["rpcs_issued"]
    outcome.outputs["cumulative_target_time"] = result.cumulative_target_time
    outcome.outputs["handler_time_fraction"] = result.handler_time_fraction
    return outcome


def sonata_fig7(seed: int, size: str) -> Outcome:
    """Fig 7's store_multi_json run: few large, serialization-bound
    RPCs.  ``run_sonata_experiment`` generates its records from a fixed
    seed, so ``seed`` does not change the inputs of this workload."""
    p = SIZES["sonata_fig7"][size]
    result = run_sonata_experiment(**p)
    batches = -(-p["n_records"] // p["batch_size"])
    ok = result.store_row().call_count == batches
    return Outcome(
        attempted=p["n_records"],
        failed=0 if ok else p["n_records"],
        outputs={
            "makespan": result.makespan,
            "deserialization_fraction": result.deserialization_fraction,
        },
    )


WORKLOADS: dict[str, Callable[[int, str], Outcome]] = {
    "fleet_n640": fleet,
    "hepnos_c5": hepnos_c5,
    "hepnos_c1": hepnos_c1,
    "sonata_fig7": sonata_fig7,
}
