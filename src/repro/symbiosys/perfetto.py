"""Chrome trace-event (Perfetto) timeline export.

Renders one run as a JSON object loadable by ``ui.perfetto.dev`` or
``chrome://tracing`` (the legacy Trace Event Format, which Perfetto
ingests natively):

* **ULT scheduler slices** from the online monitor's
  :class:`~repro.symbiosys.monitor.SchedRecorder`: every run slice is a
  complete (``"X"``) event on its execution stream's track, and every
  blocked interval is an async (``"b"``/``"e"``) span, so handler-pool
  queueing and progress-ULT starvation are visible at ULT granularity.
* **RPC stage spans** from the SYMBIOSYS trace events: the origin
  [t1, t14] interval and the target [t5, t8] interval of every RPC as
  async spans keyed by span id -- async events may overlap freely, which
  pipelined RPCs do.
* **Flow events** linking each client forward span (t1) to its server
  handler span (t5), so request causality renders as arrows instead of
  disconnected tracks.
* **Fault instant events** from the fault injector, overlaid on a
  dedicated pseudo-process so latency spikes line up with their cause.
* **Critical-path lane** (optional): pass a
  :class:`~repro.symbiosys.critical.CriticalReport` and every decomposed
  request renders its wait-state segments as async spans on a dedicated
  pseudo-process.  The lane lives on the *corrected* reference timeline
  (integer-picosecond boundaries), so segment sums match the breakdown
  exactly; other tracks use raw simulated time.

Processes map to trace ``pid`` s (sorted order), execution streams to
``tid`` s.  All identifiers are run-scoped and deterministic: same-seed
runs produce byte-identical JSON.  Timestamps are simulated time in
microseconds (the unit the format mandates).
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Iterable, Optional

from .tracing import EventKind, TraceEvent

if TYPE_CHECKING:  # pragma: no cover
    from .collector import SymbiosysCollector
    from .monitor import Monitor

__all__ = ["to_chrome_trace", "chrome_trace_json"]

#: The ``tid`` async/metadata events sit on within their process.
_META_TID = 0


def _us(t: float) -> float:
    return round(t * 1e6, 6)


def to_chrome_trace(
    *,
    monitor: Optional["Monitor"] = None,
    collector: Optional["SymbiosysCollector"] = None,
    fault_events: Iterable[tuple] = (),
    critical=None,
    migrations: Iterable = (),
) -> dict:
    """Build the trace-event dict (``{"traceEvents": [...], ...}``).

    Any combination of sources may be given; each contributes its own
    event families.  ``fault_events`` takes the injector's event-trace
    tuples (``(time, kind, *detail)``; see ``Cluster.fault_events()``);
    ``critical`` takes a :class:`~repro.symbiosys.critical.CriticalReport`
    and adds the per-request critical-path lane; ``migrations`` takes
    :class:`~repro.shard.migration.MigrationRecord` s and renders each
    shard move as an async span on a dedicated lane.
    """
    sched_slices = monitor.sched.slices if monitor is not None else []
    trace_events: list[TraceEvent] = (
        collector.all_events() if collector is not None else []
    )
    fault_events = list(fault_events)

    processes = sorted(
        {s.process for s in sched_slices} | {ev.process for ev in trace_events}
    )
    pid_of = {name: i + 1 for i, name in enumerate(processes)}
    faults_pid = len(processes) + 1

    es_names: dict[str, set] = {p: set() for p in processes}
    for s in sched_slices:
        es_names[s.process].add(s.es)
    tid_of: dict[tuple[str, str], int] = {}
    for p in processes:
        for i, es in enumerate(sorted(es_names[p]), start=1):
            tid_of[(p, es)] = i

    events: list[dict] = []

    # -- track metadata ----------------------------------------------------
    for p in processes:
        events.append({
            "ph": "M", "name": "process_name", "pid": pid_of[p],
            "tid": _META_TID, "args": {"name": p},
        })
        for es in sorted(es_names[p]):
            events.append({
                "ph": "M", "name": "thread_name", "pid": pid_of[p],
                "tid": tid_of[(p, es)], "args": {"name": es},
            })
    if fault_events:
        events.append({
            "ph": "M", "name": "process_name", "pid": faults_pid,
            "tid": _META_TID, "args": {"name": "fault injector"},
        })

    # -- ULT scheduler slices ----------------------------------------------
    block_seq = 0
    for s in sched_slices:
        pid = pid_of[s.process]
        if s.kind == "run":
            events.append({
                "ph": "X", "name": s.ult, "cat": "ult",
                "pid": pid, "tid": tid_of[(s.process, s.es)],
                "ts": _us(s.start), "dur": _us(s.end - s.start),
                "args": {"reason": s.reason},
            })
        else:  # block interval: async span (blocked ULTs overlap freely)
            block_seq += 1
            bid = f"blk{block_seq}"
            common = {
                "name": s.ult, "cat": "ult_block", "pid": pid,
                "tid": _META_TID, "id": bid,
            }
            events.append({**common, "ph": "b", "ts": _us(s.start)})
            events.append({**common, "ph": "e", "ts": _us(s.end)})

    # -- RPC stage spans (t1..t14 origin, t5..t8 target) -------------------
    by_span: dict[int, dict[EventKind, TraceEvent]] = {}
    for ev in trace_events:
        by_span.setdefault(ev.span_id, {})[ev.kind] = ev
    for span_id in sorted(by_span):
        kinds = by_span[span_id]
        t1 = kinds.get(EventKind.ORIGIN_FORWARD)
        t14 = kinds.get(EventKind.ORIGIN_COMPLETE)
        if t1 is not None and t14 is not None:
            common = {
                "name": t1.rpc_name, "cat": "rpc", "pid": pid_of[t1.process],
                "tid": _META_TID, "id": f"s{span_id}",
            }
            events.append({
                **common, "ph": "b", "ts": _us(t1.true_ts),
                "args": {
                    "request_id": t1.request_id,
                    "callpath": t1.callpath,
                    "span_id": span_id,
                    "parent_span_id": t1.parent_span_id,
                },
            })
            events.append({**common, "ph": "e", "ts": _us(t14.true_ts)})
        t5 = kinds.get(EventKind.TARGET_ULT_START)
        t8 = kinds.get(EventKind.TARGET_RESPOND)
        if t1 is not None and t5 is not None:
            # Flow arrow: client forward (t1) -> server handler (t5).
            fcommon = {
                "name": t1.rpc_name, "cat": "rpc_flow", "id": f"f{span_id}"
            }
            events.append({
                **fcommon, "ph": "s", "pid": pid_of[t1.process],
                "tid": _META_TID, "ts": _us(t1.true_ts),
            })
            events.append({
                **fcommon, "ph": "f", "bp": "e", "pid": pid_of[t5.process],
                "tid": _META_TID, "ts": _us(t5.true_ts),
            })
        if t5 is not None and t8 is not None:
            common = {
                "name": f"{t5.rpc_name} [target]", "cat": "rpc",
                "pid": pid_of[t5.process], "tid": _META_TID,
                "id": f"s{span_id}t",
            }
            events.append({
                **common, "ph": "b", "ts": _us(t5.true_ts),
                "args": {"request_id": t5.request_id, "span_id": span_id},
            })
            events.append({**common, "ph": "e", "ts": _us(t8.true_ts)})

    # -- critical-path lane ------------------------------------------------
    if critical is not None:
        crit_pid = len(processes) + 2
        events.append({
            "ph": "M", "name": "process_name", "pid": crit_pid,
            "tid": _META_TID, "args": {"name": "critical path"},
        })
        for bd in critical.breakdowns:
            for j, (category, seg_start, dur) in enumerate(bd.segments):
                common = {
                    "name": category, "cat": "critical", "pid": crit_pid,
                    "tid": _META_TID, "id": f"cp{bd.span_id}.{j}",
                }
                events.append({
                    **common, "ph": "b",
                    "ts": round(seg_start / 1e6, 6),
                    "args": {
                        "request_id": bd.request_id,
                        "rpc": bd.rpc_name,
                        "span_id": bd.span_id,
                        "duration_ps": dur,
                    },
                })
                events.append({
                    **common, "ph": "e",
                    "ts": round((seg_start + dur) / 1e6, 6),
                })

    # -- shard-migration lane ----------------------------------------------
    migrations = list(migrations)
    if migrations:
        mig_pid = len(processes) + 3
        events.append({
            "ph": "M", "name": "process_name", "pid": mig_pid,
            "tid": _META_TID, "args": {"name": "shard migrations"},
        })
        for i, rec in enumerate(migrations):
            end = rec.end if rec.end is not None else rec.start
            common = {
                "name": f"{rec.kind} shard {rec.shard}",
                "cat": "migration", "pid": mig_pid,
                "tid": _META_TID, "id": f"mig{i}",
            }
            events.append({
                **common, "ph": "b", "ts": _us(rec.start),
                "args": {
                    "shard": rec.shard,
                    "src": rec.src,
                    "dst": rec.dst,
                    "kind": rec.kind,
                    "epoch": rec.epoch,
                    "n_keys": rec.n_keys,
                    "nbytes": rec.nbytes,
                    "ok": rec.ok,
                },
            })
            events.append({**common, "ph": "e", "ts": _us(end)})

    # -- fault instant events ----------------------------------------------
    for fe in fault_events:
        t, kind, *detail = fe
        events.append({
            "ph": "i", "s": "g", "name": f"fault:{kind}",
            "cat": "fault", "pid": faults_pid, "tid": _META_TID,
            "ts": _us(t),
            "args": {"detail": " ".join(str(d) for d in detail)},
        })

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"generator": "repro.symbiosys.perfetto"},
    }


def chrome_trace_json(**kwargs) -> str:
    """:func:`to_chrome_trace` serialized deterministically."""
    return json.dumps(to_chrome_trace(**kwargs), sort_keys=True)
