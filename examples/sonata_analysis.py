#!/usr/bin/env python3
"""Sonata: storing JSON documents and querying them in place.

Demonstrates the Sonata microservice API end to end -- create a
collection, store a record array in batches, run Jx9-style filters
remotely -- and then uses SYMBIOSYS to break the target execution time
into its steps (the Figure 7 analysis).

Run:  python examples/sonata_analysis.py
"""

from repro.cluster import Cluster
from repro.services.sonata import SonataClient, SonataProvider
from repro.symbiosys import Stage
from repro.experiments import ascii_table, format_seconds, run_sonata_experiment
from repro.workloads import generate_json_records


def interactive_demo() -> None:
    """Use the Sonata API directly (no experiment harness)."""
    cluster = Cluster(stage=Stage.FULL)
    server = cluster.process("db-server", "nodeA", n_handler_es=2)
    SonataProvider(server, provider_id=1)
    client_mi = cluster.process("analyst", "nodeB")
    sonata = SonataClient(client_mi)
    records = generate_json_records(2000)
    out = {}

    def body():
        yield from sonata.create_database("db-server", 1, "telemetry")
        yield from sonata.store_multi(
            "db-server", 1, "telemetry", records, batch_size=500
        )
        out["alphas"] = yield from sonata.filter(
            "db-server", 1, "telemetry",
            {"and": [
                {"field": "tag", "op": "==", "value": "alpha"},
                {"field": "score", "op": ">", "value": 0.5},
            ]},
        )
        out["size"] = yield from sonata.size("db-server", 1, "telemetry")

    client_mi.client_ult(body())
    assert cluster.run_until(lambda: "size" in out, limit=10.0)
    expected = [
        r for r in records.items if r["tag"] == "alpha" and r["score"] > 0.5
    ]
    assert out["alphas"] == expected
    print(f"stored {out['size']} documents; remote Jx9 filter matched "
          f"{len(out['alphas'])} (verified against local evaluation)")


def figure7_breakdown() -> None:
    """The Figure 7 experiment at paper scale ratios."""
    result = run_sonata_experiment(n_records=10_000, batch_size=1_000)
    breakdown = result.target_execution_breakdown()
    total = (breakdown["target_execution_time"]
             + breakdown["internal_rdma_transfer_time"])
    rows = [
        {"step": k, "time": format_seconds(v), "share": f"{100 * v / total:.1f}%"}
        for k, v in breakdown.items() if k != "target_execution_time"
    ]
    print("\n=== Figure 7: mapping execution time to individual steps ===")
    print(ascii_table(rows))
    print(f"input deserialization is "
          f"{100 * result.deserialization_fraction:.1f}% of target execution "
          f"(paper: ~27%) -- the JSON array travels as RPC metadata")


if __name__ == "__main__":
    interactive_demo()
    figure7_breakdown()
