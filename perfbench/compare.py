"""Compare two benchmark result files, metric by metric.

    python -m perfbench compare PARENT.json CHANGE.json

Both files come from ``python -m perfbench --out FILE``.  Each row is
one workload and one end-to-end metric: each side's median and
quartiles over its repeats, and a verdict:

* ``worse``        -- the change's median is worse than the parent's by
  more than the bound recorded for this workload and metric;
* ``better``       -- the change's median is better by more than the
  parent's own quartile spread, and the change wins at least nine in ten
  of all (parent repeat, change repeat) pairs;
* ``within bound`` -- neither;
* ``unresolved``   -- a side's quartile spread is wider than the bound,
  and the runs do not separate completely.

Deterministic counts (ops attempted and failed, ``sim.events``, every
``*.calls`` and ``*.calls_in``) are not judged by bounds: they either
read ``equal`` or ``differs``.  Exit status 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import sys

from perfbench.bench import E2E_METRICS, load_reference, quartiles

__all__ = ["compare", "judge", "main"]


def judge(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """Verdict for one metric from each side's per-repeat samples."""
    sign = 1.0 if better == "lower" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    pairs = [sign * (c - p) for p in parent for c in change]
    if p_med == 0:
        return "equal" if c_med == 0 else "unresolved"
    spread = max(
        (p_q3 - p_q1) / abs(p_med),
        (c_q3 - c_q1) / abs(c_med) if c_med else 0.0,
    )
    if spread > bound:
        if all(d < 0 for d in pairs):
            return "better"
        if all(d > 0 for d in pairs):
            return "worse"
        return "unresolved"
    worse_by = sign * (c_med - p_med) / abs(p_med)
    if worse_by > bound:
        return "worse"
    wins = sum(1 for d in pairs if d < 0)
    if worse_by < 0 and abs(c_med - p_med) > p_q3 - p_q1 and wins >= 0.9 * len(pairs):
        return "better"
    return "within bound"


def _counts(result: dict) -> dict[str, int]:
    counts = {"attempted": result["attempted"], "failed": result["failed"]}
    for name, value in (result.get("layers") or {}).items():
        if name == "sim.events" or name.endswith((".calls", ".calls_in")):
            counts[name] = value
    return counts


def compare(parent: dict, change: dict) -> list[dict]:
    """One row per workload x metric present on both sides."""
    rows = []
    bounds = load_reference()["bounds"]
    for workload in sorted(set(parent["workloads"]) & set(change["workloads"])):
        p, c = parent["workloads"][workload], change["workloads"][workload]
        for metric in E2E_METRICS:
            ps, cs = p["e2e"][metric.name], c["e2e"][metric.name]
            bound = bounds[workload][metric.name]
            rows.append({
                "workload": workload,
                "metric": metric.name,
                "unit": metric.unit,
                "parent": quartiles(ps),
                "change": quartiles(cs),
                "n": (len(ps), len(cs)),
                "bound": bound,
                "verdict": judge(ps, cs, metric.better, bound),
            })
        p_counts, c_counts = _counts(p), _counts(c)
        for name in sorted(set(p_counts) | set(c_counts)):
            pv, cv = p_counts.get(name), c_counts.get(name)
            rows.append({
                "workload": workload,
                "metric": name,
                "unit": "count",
                "parent": (pv, pv, pv),
                "change": (cv, cv, cv),
                "n": (1, 1),
                "bound": 0.0,
                "verdict": "equal" if pv == cv else "differs",
            })
    return rows


def _fmt(q: tuple) -> str:
    q1, med, q3 = q
    if med is None:
        text = "-"
    elif isinstance(med, int):
        text = str(med)
    else:
        text = f"{med:.6g} [{q1:.6g}, {q3:.6g}]"
    return text.rjust(30)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python -m perfbench compare PARENT.json CHANGE.json",
              file=sys.stderr)
        return 2
    with open(argv[0]) as f:
        parent = json.load(f)
    with open(argv[1]) as f:
        change = json.load(f)
    rows = compare(parent, change)
    print(f"{'workload':<12} {'metric':<28} {'unit':<6} {'parent median [q1, q3]':>30}"
          f" {'change median [q1, q3]':>30} {'n':>7} {'bound':>6}  verdict")
    for row in rows:
        n = f"{row['n'][0]}/{row['n'][1]}"
        print(f"{row['workload']:<12} {row['metric']:<28} {row['unit']:<6} "
              f"{_fmt(row['parent'])} {_fmt(row['change'])} {n:>7} "
              f"{row['bound']:6.2f}  {row['verdict']}")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0
