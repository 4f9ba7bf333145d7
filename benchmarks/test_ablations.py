"""Ablation benchmarks: probing the design choices behind the figures.

These extend the paper's evaluation along the axes DESIGN.md §5 calls
out: the OFI_max_events knob as a sweep rather than two points, the
progress-thread x batch-size interaction, the backend choice behind the
Figure 10 serialization, the callpath-depth limitation, instrumentation
stage costs on a hot path, and -- the paper's future work -- whether the
monitor's live-tuning loop can find the C7 configuration automatically.
"""

import numpy as np
import pytest

from repro.experiments import (
    TABLE_IV,
    ascii_table,
    format_seconds,
    run_hepnos_experiment,
    run_overhead_study,
)
from repro.symbiosys import MonitorConfig, Stage
from .conftest import run_once

EVENTS = 2048
#: Repetitions of the stage ladder; its gate is a median over them.
LADDER_REPETITIONS = 9


# --------------------------------------------------------- OFI_max_events sweep


def test_ablation_ofi_max_events(benchmark, report):
    """Sweep the Figure 12 knob: cumulative RPC time falls until the cap
    clears the steady backlog, then flattens."""

    def _sweep():
        out = {}
        for cap in (8, 16, 32, 64, 128):
            cfg = TABLE_IV["C5"].scaled(name=f"C5/cap{cap}", ofi_max_events=cap)
            out[cap] = run_hepnos_experiment(
                cfg, events_per_client=EVENTS, pipeline_width=64
            )
        return out

    results = run_once(benchmark, _sweep)
    rows = [
        {
            "OFI_max_events": cap,
            "cumulative RPC time": format_seconds(r.cumulative_origin_time),
            "unaccounted share": f"{100 * r.unaccounted_fraction:.1f}%",
            "mean ofi reads": float(np.mean([v for _, v in r.ofi_series()])),
        }
        for cap, r in results.items()
    ]
    report.append("Ablation: OFI_max_events sweep at batch size 1 (C5 base)")
    report.append(ascii_table(rows))

    t = {cap: r.cumulative_origin_time for cap, r in results.items()}
    # Monotone improvement on the steep part of the curve...
    assert t[8] > t[16] > t[32] > t[64]
    # ...then diminishing returns once the cap exceeds the backlog.
    gain_16_64 = 1 - t[64] / t[16]
    gain_64_128 = 1 - t[128] / t[64]
    assert gain_16_64 > 0.3
    assert gain_64_128 < gain_16_64 / 2
    benchmark.extra_info["sweep"] = {str(k): round(v, 6) for k, v in t.items()}


# --------------------------------------------------------- progress thread grid


def test_ablation_progress_thread(benchmark, report):
    """Progress-thread placement x batch size: the dedicated ES only
    matters when the RPC rate is high (small batches)."""

    def _grid():
        out = {}
        for batch in (1, 1024):
            for pt in (False, True):
                cfg = TABLE_IV["C4"].scaled(
                    name=f"b{batch}/pt{int(pt)}",
                    batch_size=batch,
                    client_progress_thread=pt,
                    ofi_max_events=16,
                )
                out[(batch, pt)] = run_hepnos_experiment(
                    cfg, events_per_client=EVENTS,
                    pipeline_width=64 if batch == 1 else 32,
                )
        return out

    results = run_once(benchmark, _grid)
    rows = [
        {
            "batch": batch,
            "progress thread": "yes" if pt else "no",
            "cumulative RPC time": format_seconds(r.cumulative_origin_time),
            "makespan": format_seconds(r.makespan),
        }
        for (batch, pt), r in sorted(results.items())
    ]
    report.append("Ablation: progress-thread placement x batch size")
    report.append(ascii_table(rows))

    small_gain = 1 - (
        results[(1, True)].cumulative_origin_time
        / results[(1, False)].cumulative_origin_time
    )
    big_gain = 1 - (
        results[(1024, True)].cumulative_origin_time
        / results[(1024, False)].cumulative_origin_time
    )
    report.append(
        f"dedicated-ES gain: batch 1 -> {100 * small_gain:.1f}%, "
        f"batch 1024 -> {100 * big_gain:.1f}%"
    )
    assert small_gain > 0.5  # decisive at batch 1
    assert abs(big_gain) < 0.3  # marginal at batch 1024
    benchmark.extra_info["small_batch_gain"] = round(small_gain, 4)
    benchmark.extra_info["large_batch_gain"] = round(big_gain, 4)


# --------------------------------------------------------- backend choice


def test_ablation_backend(benchmark, report):
    """Figure 10's mechanism isolated: swapping the map backend for the
    LSM-style (concurrent-insert) backend removes the blocked-ULT
    serialization spikes even under the C2 flood."""
    from repro.cluster import Cluster
    from repro.experiments.presets import THETA_KNL
    from repro.services.hepnos import DataLoader, DataLoaderConfig, HEPnOSService
    from repro.workloads import flatten_to_pairs, generate_event_files

    def _run_backend(backend):
        cfg = TABLE_IV["C2"]
        cluster = Cluster(
            stage=Stage.FULL,
            preset=THETA_KNL,
            hg_config=THETA_KNL.hg_config(cfg.ofi_max_events),
        )
        service = HEPnOSService.deploy(
            cluster,
            n_servers=cfg.total_servers,
            servers_per_node=cfg.servers_per_node,
            n_handler_es=cfg.threads,
            n_databases=cfg.databases_per_server,
            backend=backend,
            sdskv_costs=THETA_KNL.map_costs if backend == "map" else None,
        )
        loaders = []
        for i in range(cfg.total_clients):
            mi = cluster.process(f"cli{i}", f"cnode{i // cfg.clients_per_node}")
            loader = DataLoader(
                mi, service, DataLoaderConfig(batch_size=cfg.batch_size,
                                              pipeline_width=2)
            )
            files = generate_event_files(
                n_files=1, events_per_file=EVENTS, seed=7 + i
            )
            loader.load(flatten_to_pairs(files))
            loaders.append(loader)
        assert cluster.run_until(
            lambda: all(l.done for l in loaders), limit=300.0
        )
        from repro.symbiosys.analysis import blocked_ult_samples

        blocked = np.array(
            [b for _, b, _ in blocked_ult_samples(
                cluster.collector.all_events()
            )]
        )
        contention = max(
            db.insert_mutex_waiters_high_watermark
            for p in service.sdskv_providers
            for db in p.databases
        )
        return blocked, contention, max(l.finished_at for l in loaders)

    def _run_pair():
        return {b: _run_backend(b) for b in ("map", "leveldb")}

    results = run_once(benchmark, _run_pair)
    rows = [
        {
            "backend": b,
            "blocked max": int(blocked.max()),
            "insert mutex contention (max waiters)": contention,
            "makespan": format_seconds(makespan),
        }
        for b, (blocked, contention, makespan) in results.items()
    ]
    report.append("Ablation: SDSKV backend under the C2 burst")
    report.append(ascii_table(rows))

    map_blocked, map_contention, _ = results["map"]
    ldb_blocked, ldb_contention, _ = results["leveldb"]
    # The *insert serialization* is a map-backend phenomenon: leveldb has
    # no insert mutex at all.  (Blocked-ULT counts include bulk-transfer
    # waits, so they drop but do not vanish.)
    assert map_contention > 10
    assert ldb_contention == 0
    assert map_blocked.max() > 1.3 * ldb_blocked.max()
    benchmark.extra_info["map_blocked_max"] = int(map_blocked.max())
    benchmark.extra_info["leveldb_blocked_max"] = int(ldb_blocked.max())
    benchmark.extra_info["map_mutex_contention"] = int(map_contention)


# --------------------------------------------------------- callpath depth


def test_ablation_callpath_depth(benchmark, report):
    """Chains deeper than 4 lose their oldest ancestor -- the 64-bit
    encoding limitation, demonstrated on a live 5-deep service chain."""
    import repro.argobots as abt
    from repro.cluster import Cluster

    def _run_chain():
        cluster = Cluster(stage=Stage.FULL)
        n_ops = 5  # op1 .. op5: one more link than the encoding can hold
        tiers = {
            level: cluster.process(f"tier{level}", f"n{level}", n_handler_es=1)
            for level in range(1, n_ops + 1)
        }

        def make_handler(level):
            def handler(mi, handle):
                yield from mi.get_input(handle)
                if level < n_ops:
                    yield from mi.forward(f"tier{level + 1}", f"op{level + 1}", {})
                yield abt.Compute(1e-6)
                yield from mi.respond(handle, level)
            return handler

        for level in range(1, n_ops + 1):
            tiers[level].register(f"op{level}", make_handler(level))
            if level < n_ops:
                tiers[level].register(f"op{level + 1}")  # client-side stub

        client = cluster.process("cli", "nc")
        client.register("op1")
        done = []

        def body():
            yield from client.forward("tier1", "op1", {})
            done.append(True)

        client.client_ult(body())
        assert cluster.run_until(lambda: done, limit=1.0)
        return cluster.collector

    collector = run_once(benchmark, _run_chain)
    from repro.symbiosys import components, hash16

    target = collector.merged_target_profile()
    codes = {key.callpath for key in target.keys()}
    # op5's ancestry is 5 links long but the encoding holds 4: the code
    # recorded for op5 keeps only op2..op5 -- op1 was shifted out.
    (op5_code,) = [c for c in codes if components(c)[-1] == hash16("op5")]
    assert components(op5_code) == [hash16(f"op{i}") for i in range(2, 6)]
    # The depth-4 chain (op1..op4) is intact alongside it.
    (op4_code,) = [c for c in codes if components(c)[-1] == hash16("op4")]
    assert components(op4_code) == [hash16(f"op{i}") for i in range(1, 5)]
    deepest = op5_code
    decoded = collector.registry.decode(deepest)
    report.append("Ablation: callpath depth overflow (5-deep chain)")
    report.append(f"  deepest recorded ancestry: {decoded}")
    report.append("  (op1, the true root, was shifted out -- the paper's "
                  "depth-4 limit)")
    assert "op1" not in decoded
    assert "op5" in decoded


# --------------------------------------------------------- stage cost ladder


def test_ablation_stages(benchmark, report):
    """Wall-clock cost of each instrumentation stage on a hot RPC path
    (complements Figure 13 with a per-RPC microview).  The gate is the
    median of the per-repetition Full / Baseline wall ratios, so one
    slow run cannot fail it."""

    def _ladder():
        return run_overhead_study(
            config=TABLE_IV["C4"],
            events_per_client=EVENTS,
            repetitions=LADDER_REPETITIONS,
        )

    study = run_once(benchmark, _ladder)
    report.append(
        f"Ablation: instrumentation stage cost ladder (C4 workload, "
        f"{LADDER_REPETITIONS} repetitions: mean wall, median paired overhead)"
    )
    report.append(ascii_table(study.rows()))
    makespans = {round(t.mean_makespan, 12) for t in study.timings.values()}
    assert len(makespans) == 1, "stages must not perturb simulated time"
    # Full support should stay within 2x of baseline wall-clock.
    timings = study.timings
    ratio = study.paired_ratio(timings[Stage.FULL], timings[Stage.OFF])
    benchmark.extra_info["full_over_baseline"] = round(ratio, 4)
    assert ratio < 2.0, (
        f"Full / Baseline median paired wall ratio = {ratio:.3f} >= 2.0"
    )


# --------------------------------------------------------- autotuner


def test_ablation_autotuner(benchmark, report):
    """The future-work extension: starting from the pathological C5, the
    monitor's autotune loop raises OFI_max_events and dedicates a
    progress ES online, recovering most of the hand-tuned C7
    improvement."""

    def _run_all():
        plain = run_hepnos_experiment(
            TABLE_IV["C5"], events_per_client=EVENTS, pipeline_width=64
        )
        tuned = run_hepnos_experiment(
            TABLE_IV["C5"],
            events_per_client=EVENTS,
            pipeline_width=64,
            monitoring=MonitorConfig(autotune=True),
        )
        hand = run_hepnos_experiment(
            TABLE_IV["C7"], events_per_client=EVENTS, pipeline_width=64
        )
        return plain, tuned, hand

    plain, tuned, hand = run_once(benchmark, _run_all)
    rows = [
        {
            "setup": name,
            "cumulative RPC time": format_seconds(r.cumulative_origin_time),
            "unaccounted share": f"{100 * r.unaccounted_fraction:.1f}%",
        }
        for name, r in (
            ("C5 (static)", plain),
            ("C5 + autotune", tuned),
            ("C7 (hand-tuned)", hand),
        )
    ]
    report.append("Ablation: in-situ autotuning from C5")
    report.append(ascii_table(rows))
    actions = [f for f in tuned.monitor.findings if f.detector == "autotune"]
    for a in actions[:8]:
        report.append(f"  t={a.time * 1e3:.2f}ms {a.process}: {a.message}")

    # The loop raised the read cap on both clients and touched no server.
    raised = {a.process for a in actions if a.message.startswith("OFI_max_events")}
    assert raised == set(tuned.client_addrs) == {"cli0", "cli1"}
    assert not {a.process for a in actions} & set(tuned.server_addrs)
    # Autotuned C5 closes most of the gap to hand-tuned C7.
    gap_static = plain.cumulative_origin_time - hand.cumulative_origin_time
    gap_tuned = tuned.cumulative_origin_time - hand.cumulative_origin_time
    closed = 1 - gap_tuned / gap_static
    report.append(f"gap to hand-tuned C7 closed: {100 * closed:.1f}%")
    assert closed > 0.5
    benchmark.extra_info["gap_closed"] = round(closed, 4)
    benchmark.extra_info["actions"] = [a.message for a in actions]
