"""Table III: combining instrumentation strategies.

Runs one fully instrumented RPC through the whole stack and regenerates
the table: every interval of Table III measured, each through the
strategy the paper assigns to it (ULT-local key vs Mercury PVAR).
"""

import repro.argobots as abt
from repro.cluster import Cluster
from repro.mercury import HGConfig
from repro.symbiosys import ProfileKey, Stage, push
from repro.experiments import ascii_table
from .conftest import run_once

#: interval -> (t-range label, strategy), straight from Table III.
PAPER_TABLE_III = {
    "origin_execution_time": ("t1 -> t14", "ULT-local key"),
    "input_serialization_time": ("t2 -> t3", "Mercury PVAR"),
    "internal_rdma_transfer_time": ("t3 -> t4", "Mercury PVAR"),
    "target_handler_time": ("t4 -> t5", "ULT-local key"),
    "input_deserialization_time": ("t6 -> t7", "Mercury PVAR"),
    "target_execution_time_exclusive": ("t5 -> t8", "ULT-local key"),
    "output_serialization_time": ("t9 -> t10", "Mercury PVAR"),
    "target_completion_callback_time": ("t8 -> t13", "ULT-local key"),
    "origin_completion_callback_time": ("t12 -> t14", "Mercury PVAR"),
}

_ORIGIN_SIDE = {
    "origin_execution_time",
    "input_serialization_time",
    "origin_completion_callback_time",
}


def _run_one_rpc():
    # A small eager buffer so the internal-RDMA interval is exercised.
    cluster = Cluster(stage=Stage.FULL, hg_config=HGConfig(eager_size=128))
    server = cluster.process("svr", "n0", n_handler_es=1)
    client = cluster.process("cli", "n1")

    def handler(mi, handle):
        yield from mi.get_input(handle)
        yield abt.Compute(20e-6)
        yield from mi.respond(handle, {"ok": True, "echo": "y" * 200})

    server.register("probe_rpc", handler)
    client.register("probe_rpc")
    done = []

    def body():
        out = yield from client.forward("svr", "probe_rpc", {"blob": "x" * 1000})
        done.append(out)

    client.client_ult(body())
    assert cluster.run_until(lambda: done, limit=1.0)
    return cluster.collector


def test_table3_intervals(benchmark, report):
    collector = run_once(benchmark, _run_one_rpc)
    code = push(0, "probe_rpc")
    origin = collector.merged_origin_profile()
    target = collector.merged_target_profile()
    okey = ProfileKey(code, "cli", "svr")

    rows = []
    values = {}
    for interval, (t_range, strategy) in PAPER_TABLE_III.items():
        store = origin if interval in _ORIGIN_SIDE else target
        stats = store.get(okey, interval)
        assert stats is not None, f"interval {interval} not measured"
        assert stats.count == 1
        values[interval] = stats.total
        rows.append(
            {
                "Interval Name": interval,
                "Interval": t_range,
                "Instrumentation Strategy": strategy,
                "measured": f"{stats.total * 1e6:.2f}us",
            }
        )
    report.append("Table III: Combining Instrumentation Strategies")
    report.append(ascii_table(rows))

    # Shape: component intervals nest inside the origin execution time,
    # the handler really computed for its 20us, and the overflow really
    # went through internal RDMA.
    total = values["origin_execution_time"]
    assert values["target_execution_time_exclusive"] >= 20e-6
    assert values["internal_rdma_transfer_time"] > 0
    for k, v in values.items():
        if k != "origin_execution_time":
            assert 0 <= v < total, f"{k} should nest inside origin execution"
    benchmark.extra_info["origin_execution_us"] = total * 1e6
