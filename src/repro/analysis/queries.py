"""The analysis service's query operations.

Each operation is a pure function ``(store, params) -> result dict``
answering one cross-run question over a
:class:`~repro.store.PerfStore`:

``runs``
    Inventory of recorded runs.
``regression``
    Per-metric deltas between a base and a head run, each with a
    bootstrap confidence interval -- "did this PR slow anything down".
``trend``
    One metric's statistic across many runs, keyed by seed or by a run
    tag (scale, topology, ...) -- percentile trends vs. scale.
``knobs``
    Knob-importance table: for every config tag that varies across
    runs, how much the chosen metric moves between its values.
``detectors``
    Anomaly-detector event summaries per run.
``profile``
    Top callpath-profile rows of one archived run.
``breakdown``
    Per-operation latency decomposition of one run: mean seconds per
    wait-state category with bootstrap CIs (Fig 11-12's quantities).
``critical_path``
    Per-request critical paths of one run: the ordered wait-state
    segments of the slowest (or one named) request.
``blame``
    The cross-request interference matrix: who occupied the contended
    resource while each victim operation waited, summed overlap.
``shards``
    Per-shard breakdown of one sharded run: final per-process shard
    counts, op/redirect/migration/byte totals from the ``shard_*``
    PVAR series, and the hottest shards from the monitor's per-shard
    ``shard_ops`` series.

The three critical-path ops read the ``breakdowns`` table that
:func:`~repro.store.record_cluster_run` writes at record time.

All floats in results pass through :func:`~repro.analysis.stats.round9`
and all iteration orders are sorted, so a serialized reply is
byte-stable for a given (store, query) pair.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .stats import (
    bootstrap_ci,
    bootstrap_delta_ci,
    check_bootstrap,
    mean,
    percentile,
    round9,
)

__all__ = ["QUERY_OPS", "run_query"]


def _stat_fn(name: str) -> Callable[[Sequence[float]], float]:
    if name == "mean":
        return mean
    if name.startswith("p"):
        try:
            q = float(name[1:])
        except ValueError:
            raise ValueError(f"unknown stat {name!r}") from None
        return lambda values: percentile(values, q)
    raise ValueError(f"unknown stat {name!r} (use 'mean' or 'pNN')")


def _int_param(params: dict, name: str, default=None, minimum: int = 0):
    """``params[name]`` as an int (``default`` when absent); a value
    below ``minimum`` is an error, not a silently wrong slice."""
    value = params.get(name, default)
    if value is None:
        return None
    value = int(value)
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")
    return value


def _boot_kwargs(params: dict) -> dict:
    kw = {
        "n_boot": _int_param(params, "boot", 200, minimum=1),
        "seed": int(params.get("seed", 0)),
        "alpha": float(params.get("alpha", 0.05)),
    }
    check_bootstrap(kw["n_boot"], kw["alpha"])
    return kw


def q_runs(store, params: dict) -> dict:
    runs = store.runs(kind=params.get("kind"))
    return {"count": len(runs), "runs": runs}


def q_regression(store, params: dict) -> dict:
    """Per-metric base-vs-head deltas with bootstrap CIs.

    A metric is *flagged* when its CI excludes zero -- the planted-
    slowdown detection the store tests assert on.
    """
    kw = _boot_kwargs(params)
    limit = _int_param(params, "limit")
    base = store.resolve_run(params["base"])
    head = store.resolve_run(params["head"])
    stat_name = params.get("stat", "mean")
    stat = _stat_fn(stat_name)
    prefix = params.get("prefix")

    base_names = set(store.metric_names(base))
    head_names = set(store.metric_names(head))
    common = sorted(base_names & head_names)
    if prefix:
        common = [n for n in common if n.startswith(prefix)]

    rows = []
    for name in common:
        vb = store.metric_values(base, name)
        vh = store.metric_values(head, name)
        if not vb or not vh:
            continue
        sb, sh = stat(vb), stat(vh)
        delta = sh - sb
        lo, hi = bootstrap_delta_ci(vb, vh, stat, **kw)
        rows.append(
            {
                "metric": name,
                "base": round9(sb),
                "head": round9(sh),
                "delta": round9(delta),
                "rel_delta": round9(delta / sb) if sb else 0.0,
                "ci_lo": lo,
                "ci_hi": hi,
                "flagged": bool(lo > 0.0 or hi < 0.0),
            }
        )
    rows.sort(key=lambda r: (-abs(r["rel_delta"]), r["metric"]))
    if limit is not None:
        rows = rows[:limit]
    return {
        "base_run": base,
        "head_run": head,
        "stat": stat_name,
        "metrics_compared": len(rows),
        "flagged": sum(1 for r in rows if r["flagged"]),
        "rows": rows,
    }


def q_trend(store, params: dict) -> dict:
    """One metric's statistic (with CI) across runs, keyed by seed or a
    run tag (``by="tag:<key>"``)."""
    metric = params["metric"]
    stat_name = params.get("stat", "p95")
    stat = _stat_fn(stat_name)
    by = params.get("by", "seed")
    kw = _boot_kwargs(params)

    points = []
    for run in store.runs(kind=params.get("kind")):
        values = store.metric_values(run["run_id"], metric)
        if not values:
            continue
        if by == "seed":
            x = run["seed"]
        elif by == "name":
            x = run["name"]
        elif by.startswith("tag:"):
            x = run["tags"].get(by[4:])
        else:
            raise ValueError(f"unknown 'by' key {by!r}")
        lo, hi = bootstrap_ci(values, stat, **kw)
        points.append(
            {
                "run_id": run["run_id"],
                "x": x,
                "value": round9(stat(values)),
                "ci_lo": lo,
                "ci_hi": hi,
                "n_samples": len(values),
            }
        )
    points.sort(key=lambda p: (str(p["x"]), p["run_id"]))
    return {"metric": metric, "stat": stat_name, "by": by, "points": points}


def q_knobs(store, params: dict) -> dict:
    """Knob-importance table: for every varying run tag/config key, the
    spread of the target metric's statistic across its values."""
    metric = params["metric"]
    stat = _stat_fn(params.get("stat", "mean"))

    # Gather (knobs, value) per run that has the metric.
    run_rows = []
    for run in store.runs(kind=params.get("kind")):
        values = store.metric_values(run["run_id"], metric)
        if not values:
            continue
        knobs = {**run["config"], **run["tags"]}
        run_rows.append((knobs, stat(values)))

    keys = sorted({k for knobs, _ in run_rows for k in knobs})
    rows = []
    for key in keys:
        groups: dict[str, list[float]] = {}
        for knobs, value in run_rows:
            if key in knobs:
                groups.setdefault(str(knobs[key]), []).append(value)
        if len(groups) < 2:
            continue  # a knob that never varies carries no signal
        group_means = {g: mean(vs) for g, vs in sorted(groups.items())}
        spread = max(group_means.values()) - min(group_means.values())
        base = min(group_means.values())
        rows.append(
            {
                "knob": key,
                "values": {g: round9(m) for g, m in group_means.items()},
                "spread": round9(spread),
                "rel_spread": round9(spread / base) if base else 0.0,
                "n_runs": sum(len(vs) for vs in groups.values()),
            }
        )
    rows.sort(key=lambda r: (-r["spread"], r["knob"]))
    return {"metric": metric, "rows": rows}


def q_detectors(store, params: dict) -> dict:
    """Detector-event summaries: per run (or one run), counts plus
    first/last firing per detector."""
    if "run" in params:
        runs = [store.run(params["run"])]
    else:
        runs = store.runs(kind=params.get("kind"))
    out = []
    for run in runs:
        findings = store.findings(run["run_id"])
        per: dict[str, dict] = {}
        for f in findings:
            d = per.setdefault(
                f["detector"],
                {
                    "count": 0,
                    "first": f["time"],
                    "last": f["time"],
                    "processes": set(),
                },
            )
            d["count"] += 1
            d["first"] = min(d["first"], f["time"])
            d["last"] = max(d["last"], f["time"])
            d["processes"].add(f["process"])
        out.append(
            {
                "run_id": run["run_id"],
                "name": run["name"],
                "total": len(findings),
                "detectors": {
                    name: {
                        "count": d["count"],
                        "first": round9(d["first"]),
                        "last": round9(d["last"]),
                        "processes": sorted(d["processes"]),
                    }
                    for name, d in sorted(per.items())
                },
            }
        )
    return {"runs": out}


def q_profile(store, params: dict) -> dict:
    """Top callpath-profile rows of one run by cumulative time."""
    top = _int_param(params, "top", 10)
    run = store.resolve_run(params["run"])
    side = params.get("side", "origin")
    interval = params.get("interval")
    rows = store.profile_rows(run, side)
    if interval:
        rows = [r for r in rows if r["interval"] == interval]
    rows.sort(
        key=lambda r: (-r["total"], r["callpath"], r["interval"])
    )
    return {
        "run_id": run,
        "side": side,
        "rows": [
            {
                "callpath": f"{r['callpath']:#018x}",
                "callpath_name": r["callpath_name"],
                "origin": r["origin"],
                "target": r["target"],
                "interval": r["interval"],
                "count": r["count"],
                "total": round9(r["total"]),
                "mean": round9(r["total"] / r["count"]) if r["count"] else 0.0,
            }
            for r in rows[:top]
        ],
    }


def _breakdown_dicts(store, run_id: int) -> list[dict]:
    """The run's stored per-request breakdowns.  A run with trace events
    but no breakdowns was archived without the critical-path engine, so
    an empty answer would be wrong: it is refused instead."""
    rows = store.breakdown_rows(run_id)
    if not rows and store.trace_event_rows(run_id):
        raise ValueError(
            f"run {store.run(run_id)['name']!r} (id {run_id}) has trace "
            "events but no stored breakdowns; record it with "
            "record_cluster_run"
        )
    return rows


def _retry_by_op(store, run_id: int) -> dict:
    """Aggregate retry/timeout counts and backoff seconds per RPC."""
    out: dict[str, dict] = {}
    for rec in store.retry_records(run_id):
        d = out.setdefault(
            rec["rpc_name"], {"retries": 0, "timeouts": 0, "backoff_s": 0.0}
        )
        if rec["kind"] == "retry":
            d["retries"] += 1
            d["backoff_s"] += rec["delay"]
        else:
            d["timeouts"] += 1
    return {
        op: {**d, "backoff_s": round9(d["backoff_s"])}
        for op, d in sorted(out.items())
    }


def q_breakdown(store, params: dict) -> dict:
    """Per-operation wait-state decomposition with bootstrap CIs.

    For every RPC name: the mean end-to-end latency and, per category,
    the mean seconds spent there (CI over the per-request values) and
    that category's share of the operation's total -- the machine-
    readable form of the paper's Fig 11/12 stacked bars.
    """
    from ..symbiosys.critical import CATEGORIES

    run = store.resolve_run(params["run"])
    kw = _boot_kwargs(params)
    rows = _breakdown_dicts(store, run)

    by_op: dict[str, list[dict]] = {}
    for r in rows:
        by_op.setdefault(r["rpc_name"], []).append(r)

    operations = []
    for op in sorted(by_op):
        group = by_op[op]
        totals = [r["total_ps"] / 1e12 for r in group]
        lo, hi = bootstrap_ci(totals, mean, **kw)
        op_total_ps = sum(r["total_ps"] for r in group)
        categories = {}
        for cat in CATEGORIES:
            values = [r["categories"].get(cat, 0) / 1e12 for r in group]
            cat_ps = sum(r["categories"].get(cat, 0) for r in group)
            if cat_ps == 0 and not any(values):
                continue
            clo, chi = bootstrap_ci(values, mean, **kw)
            categories[cat] = {
                "mean_s": round9(mean(values)),
                "ci_lo": clo,
                "ci_hi": chi,
                "share": round9(cat_ps / op_total_ps)
                if op_total_ps else 0.0,
            }
        operations.append(
            {
                "rpc": op,
                "count": len(group),
                "total_mean_s": round9(mean(totals)),
                "ci_lo": lo,
                "ci_hi": hi,
                "categories": categories,
            }
        )

    category_totals = {}
    for cat in CATEGORIES:
        ps = sum(r["categories"].get(cat, 0) for r in rows)
        if ps:
            category_totals[cat] = round9(ps / 1e12)
    return {
        "run_id": run,
        "n_requests": len(rows),
        "operations": operations,
        "category_totals": category_totals,
        "retry_by_op": _retry_by_op(store, run),
    }


def q_critical_path(store, params: dict) -> dict:
    """Per-request critical paths: ordered wait-state segments of the
    slowest ``top`` requests (or of one ``request`` by id)."""
    top = _int_param(params, "top", 10)
    run = store.resolve_run(params["run"])
    request = params.get("request")
    rows = _breakdown_dicts(store, run)
    if request is not None:
        rows = [r for r in rows if r["request_id"] == request]
    rows.sort(key=lambda r: (-r["total_ps"], r["request_id"], r["span_id"]))
    return {
        "run_id": run,
        "n_requests": len(rows),
        "requests": [
            {
                "request_id": r["request_id"],
                "rpc": r["rpc_name"],
                "span_id": r["span_id"],
                "origin": r["origin"],
                "target": r["target"],
                "total_s": round9(r["total_ps"] / 1e12),
                "n_faults": r["n_faults"],
                "segments": [
                    {
                        "category": cat,
                        "start_s": round9(start / 1e12),
                        "duration_s": round9(dur / 1e12),
                    }
                    for cat, start, dur in r["segments"]
                ],
            }
            for r in rows[:top]
        ],
    }


def q_blame(store, params: dict) -> dict:
    """The cross-request interference matrix: for each victim RPC, who
    occupied the contended resource while it waited, with the summed
    overlap split by wait-state category."""
    limit = _int_param(params, "limit")
    run = store.resolve_run(params["run"])
    rows = _breakdown_dicts(store, run)

    cells: dict[tuple[str, str], dict] = {}
    for r in rows:
        for cat, occupant, overlap_ps in r["blame"]:
            cell = cells.setdefault(
                (r["rpc_name"], occupant), {"overlap_ps": 0, "categories": {}}
            )
            cell["overlap_ps"] += overlap_ps
            cell["categories"][cat] = (
                cell["categories"].get(cat, 0) + overlap_ps
            )
    matrix = [
        {
            "victim": victim,
            "occupant": occupant,
            "overlap_s": round9(cell["overlap_ps"] / 1e12),
            "categories": {
                cat: round9(ps / 1e12)
                for cat, ps in sorted(cell["categories"].items())
            },
        }
        for (victim, occupant), cell in sorted(
            cells.items(),
            key=lambda kv: (-kv[1]["overlap_ps"], kv[0]),
        )
    ]
    if limit is not None:
        matrix = matrix[:limit]
    return {"run_id": run, "n_requests": len(rows), "matrix": matrix}


def _parse_labels(text: str) -> dict:
    """Invert :func:`repro.store.writer.labels_to_text`."""
    if not text:
        return {}
    return dict(pair.split("=", 1) for pair in text.split("|"))


#: The per-process shard PVAR series a sharded run records, mapped to
#: their row field names (final sample value wins; counters are
#: cumulative, so last == total).
_SHARD_PVARS = {
    "pvar_shard_num_owned": "shards_owned",
    "pvar_ssg_view_epoch": "view_epoch",
    "pvar_shard_ops_total": "ops",
    "pvar_shard_redirects_total": "redirects",
    "pvar_shard_migrations_in": "migrations_in",
    "pvar_shard_migrations_out": "migrations_out",
    "pvar_shard_migration_bytes_in": "bytes_in",
    "pvar_shard_migration_bytes_out": "bytes_out",
}


def q_shards(store, params: dict) -> dict:
    """Per-shard breakdown of one sharded run.

    Reads the shard PVAR series (``pvar_shard_*``, ``pvar_ssg_*``) the
    monitor sampled per process and the per-shard ``shard_ops`` series
    the hot-spot detector records, and reduces both to final values:
    one row per server process, one row per (shard, process) pair, and
    run-wide totals.  ``top`` caps the per-shard rows to the hottest N.
    """
    top = _int_param(params, "top")
    run = store.run(params["run"])
    run_id = run["run_id"]
    per_process: dict[str, dict] = {}
    shard_rows = []
    for name, labels_text in store.series_keys(run_id):
        labels = _parse_labels(labels_text)
        if name in _SHARD_PVARS:
            samples = store.samples(run_id, name, labels_text)
            if not samples:
                continue
            row = per_process.setdefault(labels.get("process", ""), {})
            row[_SHARD_PVARS[name]] = round9(samples[-1][1])
        elif name == "shard_ops":
            samples = store.samples(run_id, name, labels_text)
            if not samples:
                continue
            shard_rows.append(
                {
                    "shard": int(labels["shard"]),
                    "process": labels.get("process", ""),
                    "ops": round9(samples[-1][1]),
                }
            )
    processes = [
        dict(sorted(row.items()), process=addr)
        for addr, row in sorted(per_process.items())
    ]
    shard_rows.sort(key=lambda r: (-r["ops"], r["shard"], r["process"]))
    if top is not None:
        shard_rows = shard_rows[:top]
    totals = {
        "ops": round9(sum(r.get("ops", 0.0) for r in processes)),
        "redirects": round9(sum(r.get("redirects", 0.0) for r in processes)),
        "migrations": round9(
            sum(r.get("migrations_in", 0.0) for r in processes)
        ),
        "migrated_bytes": round9(
            sum(r.get("bytes_in", 0.0) for r in processes)
        ),
    }
    return {
        "run_id": run_id,
        "name": run["name"],
        "processes": processes,
        "shards": shard_rows,
        "totals": totals,
    }


QUERY_OPS: dict[str, Callable] = {
    "runs": q_runs,
    "regression": q_regression,
    "trend": q_trend,
    "knobs": q_knobs,
    "detectors": q_detectors,
    "profile": q_profile,
    "breakdown": q_breakdown,
    "critical_path": q_critical_path,
    "blame": q_blame,
    "shards": q_shards,
}


def run_query(store, op: str, params: dict) -> dict:
    fn = QUERY_OPS.get(op)
    if fn is None:
        raise ValueError(
            f"unknown op {op!r} (available: {', '.join(sorted(QUERY_OPS))})"
        )
    return fn(store, params)
