"""Per-request critical-path and wait-state decomposition (Figs 11-12).

The diagnostic half of the paper explains *where* a slow RPC spent its
time: progress-loop starvation, OFI event-queue backlog, handler-pool
queueing.  This engine stitches the t1..t14 span timeline with ULT
run/block slices, fabric arrival timestamps, retry/backoff records, and
fault annotations into a per-request **critical path**, decomposed into
named wait-state categories:

==================  ==========================================================
client_serialize    t1 -> t2-3: input serialization on the origin ULT
network_transit     request and response wire transit (t2-3 -> arrival,
                    t9-10 -> t11)
ofi_cq_backlog      completion sat in the OFI CQ while the progress loop
                    was running (bounded reads / deep queue; Fig 12)
progress_starvation completion sat in the OFI CQ while the progress ULT
                    was *not* running (monopolized ES; Fig 11)
handler_pool_queue  t4 -> t5: spawned handler ULT waiting for an ES (Fig 9)
handler_execute     handler computation proper (exclusive)
backend_service     time inside downstream (child-span) RPCs
rdma_bulk           internal-RDMA metadata pull plus bulk transfers
retry_backoff       backoff slept between failed forward attempts
                    (aggregate/per-operation: each attempt is its own
                    request id, so no *complete* request contains one)
unattributed        reserved; always 0 for complete spans
==================  ==========================================================

**Exact sum-to-total invariant.**  All boundaries are mapped into the
reference timeline of the Lamport/NTP clock correction
(:func:`~repro.symbiosys.analysis.trace_summary.estimate_clock_offsets`),
rounded to integer picoseconds, and monotone-clamped; every category is
a difference (or exact partition) of consecutive boundaries, so the
telescoping sum equals the end-to-end latency *exactly*, per request,
as integers.

**Blame attribution.**  For each queueing wait the engine identifies
what occupied the contended resource during the wait window: other
requests' handler executions for ``handler_pool_queue``, and the
non-progress ULTs holding the execution stream for CQ waits
(``progress_starvation``).  Per-request blame entries aggregate into a
cross-request interference matrix ``victim rpc -> occupant -> ps``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

from .analysis.trace_summary import Span, TraceSummary, stitch_traces
from .tracing import EventKind, TraceEvent

__all__ = [
    "CATEGORIES",
    "WAIT_CATEGORIES",
    "BlameEntry",
    "CriticalReport",
    "RequestBreakdown",
    "analyze",
    "analyze_collector",
    "analyze_run",
    "annotate_findings",
    "dominant_wait_state",
]

#: Every wait-state category, in canonical (reporting) order.
CATEGORIES = (
    "client_serialize",
    "network_transit",
    "ofi_cq_backlog",
    "progress_starvation",
    "handler_pool_queue",
    "handler_execute",
    "backend_service",
    "rdma_bulk",
    "retry_backoff",
    "unattributed",
)

#: The subset that is *waiting* (vs. doing the request's own work);
#: finding annotation picks its dominant wait state from these.
WAIT_CATEGORIES = (
    "network_transit",
    "ofi_cq_backlog",
    "progress_starvation",
    "handler_pool_queue",
    "rdma_bulk",
    "retry_backoff",
)

#: Detector -> wait state used when no breakdown overlaps a finding
#: (e.g. the process crashed and produced no complete spans).
_FALLBACK_WAIT = {
    "progress_starvation": "progress_starvation",
    "handler_queue_depth": "handler_pool_queue",
    "forward_timeout_burst": "retry_backoff",
}

_PS = 1e12  # picoseconds per second


def _ps(seconds: float) -> int:
    return int(round(seconds * _PS))


@dataclass(frozen=True)
class BlameEntry:
    """One occupant of a contended resource during one wait window."""

    category: str
    occupant: str
    overlap_ps: int


@dataclass
class RequestBreakdown:
    """The decomposed critical path of one complete root span."""

    request_id: str
    span_id: int
    rpc_name: str
    origin: str
    target: str
    #: Corrected t1 / t14, integer picoseconds on the reference timeline.
    start_ps: int
    total_ps: int
    #: category -> integer picoseconds; sums exactly to ``total_ps``.
    categories: dict
    #: Ordered ``(category, start_ps, duration_ps)`` segments for the
    #: Perfetto critical-path lane.  Category totals are exact; segment
    #: *positions* inside composite windows (CQ wait splits, the handler
    #: window) are ordered placements, not literal sub-timestamps.
    segments: tuple
    blame: tuple
    #: Uncorrected (simulator-truth) span window, for overlap queries
    #: against monitor findings and fault annotations.
    start_true: float
    end_true: float
    n_faults: int = 0

    def check(self) -> bool:
        """The exact sum-to-total invariant."""
        return sum(self.categories.values()) == self.total_ps


class _ProcessIndex:
    """Per-process interval indexes over the scheduler slices."""

    def __init__(self) -> None:
        self.progress: list[tuple[float, float]] = []
        #: Non-progress run slices: parallel (starts, ends, labels).
        self.run_starts: list[float] = []
        self.run_ends: list[float] = []
        self.run_labels: list[str] = []

    def coverage(self, lo: float, hi: float) -> float:
        """Seconds of [lo, hi] covered by progress-ULT run slices."""
        if hi <= lo or not self.progress:
            return 0.0
        covered = 0.0
        starts = [s for s, _ in self.progress]
        i = max(bisect_left(starts, lo) - 1, 0)
        for s, e in self.progress[i:]:
            if s >= hi:
                break
            if e > lo:
                covered += min(e, hi) - max(s, lo)
        return covered

    def occupants(self, lo: float, hi: float) -> dict[str, float]:
        """label -> overlap seconds of non-progress run slices in
        [lo, hi]."""
        out: dict[str, float] = {}
        if hi <= lo or not self.run_starts:
            return out
        i = max(bisect_left(self.run_starts, lo) - 1, 0)
        for j in range(i, len(self.run_starts)):
            s = self.run_starts[j]
            if s >= hi:
                break
            e = self.run_ends[j]
            if e > lo:
                label = self.run_labels[j]
                out[label] = out.get(label, 0.0) + min(e, hi) - max(s, lo)
        return out


def _index_slices(sched_slices: Iterable) -> dict[str, _ProcessIndex]:
    """Split run slices per process into progress vs. everything else."""
    by_process: dict[str, _ProcessIndex] = {}
    rows = []
    for sl in sched_slices:
        if sl.kind != "run" or sl.end <= sl.start:
            continue
        rows.append(sl)
    rows.sort(key=lambda sl: (sl.process, sl.start, sl.end, sl.ult))
    for sl in rows:
        idx = by_process.get(sl.process)
        if idx is None:
            idx = by_process[sl.process] = _ProcessIndex()
        prefix = sl.process + "."
        name = sl.ult[len(prefix):] if sl.ult.startswith(prefix) else sl.ult
        if name == "__margo_progress":
            idx.progress.append((sl.start, sl.end))
        else:
            idx.run_starts.append(sl.start)
            idx.run_ends.append(sl.end)
            idx.run_labels.append(name)
    return by_process


def _span_events(span: Span) -> dict[EventKind, TraceEvent]:
    quad: dict[EventKind, TraceEvent] = {}
    for ev in span.events:
        quad.setdefault(ev.kind, ev)
    return quad


def _split_cq_wait(
    window_ps: int,
    idx: Optional[_ProcessIndex],
    lo_true: float,
    hi_true: float,
) -> tuple[int, int]:
    """Partition a CQ-wait window into (backlog, starvation) ps.

    The covered portion (progress ULT was running: the queue was simply
    deep or reads were capped) is backlog; the uncovered portion is
    starvation.  A process with *no* recorded progress slices degrades
    to all-backlog -- without scheduler data we cannot claim starvation.
    """
    if window_ps <= 0:
        return 0, 0
    if idx is None or not idx.progress:
        return window_ps, 0
    covered = idx.coverage(lo_true, hi_true)
    backlog = min(window_ps, max(_ps(covered), 0))
    return backlog, window_ps - backlog


def _merged_ps(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Total ps of the union of ``intervals`` clipped to [lo, hi]."""
    clipped = sorted(
        (max(s, lo), min(e, hi)) for s, e in intervals if min(e, hi) > max(s, lo)
    )
    total = 0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def _decompose(
    span: Span,
    offsets: dict[str, float],
    proc_index: dict[str, _ProcessIndex],
    handler_windows: dict[str, list[tuple[float, float, str, int]]],
) -> Optional[RequestBreakdown]:
    quad = _span_events(span)
    of = quad.get(EventKind.ORIGIN_FORWARD)
    tus = quad.get(EventKind.TARGET_ULT_START)
    tr = quad.get(EventKind.TARGET_RESPOND)
    oc = quad.get(EventKind.ORIGIN_COMPLETE)
    if None in (of, tus, tr, oc) or not span.complete:
        return None

    origin, target = of.process, tus.process
    # Corrected-frame shifts: each side's events anchor the mapping
    # true -> corrected for timestamps recorded on that process.
    shift_t = tus.local_ts - offsets.get(target, 0.0) - tus.true_ts
    shift_o = oc.local_ts - offsets.get(origin, 0.0) - oc.true_ts

    t4_true = tus.data.get("t4", tus.true_ts)
    t_arrival_true = tus.data.get("t_arrival", t4_true)
    irdma = max(tus.data.get("internal_rdma_transfer_time", 0.0), 0.0)
    bulk = max(tr.data.get("bulk_transfer_time", 0.0), 0.0)
    ser = max(oc.pvars.get("input_serialization_time", 0.0), 0.0)
    t11_true = oc.data.get("t11", oc.true_ts)
    t14_true = oc.true_ts

    # Boundary chain, corrected frame:
    #  b0 t1 | b1 serialized | b2 arrival at target CQ | b3 rdma start
    #  b4 t4 deliver | b5 t5 handler start | b6 t8 respond
    #  b7 t11 arrival at origin CQ | b8 t14 completion callback
    raw = (
        span.t1,
        span.t1 + ser,
        t_arrival_true + shift_t,
        t4_true - irdma + shift_t,
        t4_true + shift_t,
        span.t5,
        span.t8,
        t11_true + shift_o,
        span.t14,
    )
    b = [_ps(x) for x in raw]
    start, end = b[0], max(b[0], b[8])
    for i in range(1, 8):
        b[i] = min(end, max(b[i - 1], b[i]))
    b[8] = end
    total = end - start

    cat = dict.fromkeys(CATEGORIES, 0)
    cat["client_serialize"] = b[1] - b[0]
    cat["network_transit"] = (b[2] - b[1]) + (b[7] - b[6])

    tgt_idx = proc_index.get(target)
    org_idx = proc_index.get(origin)
    t_backlog, t_starve = _split_cq_wait(
        b[3] - b[2], tgt_idx, t_arrival_true, t4_true - irdma
    )
    o_backlog, o_starve = _split_cq_wait(
        b[8] - b[7], org_idx, t11_true, t14_true
    )
    cat["ofi_cq_backlog"] = t_backlog + o_backlog
    cat["progress_starvation"] = t_starve + o_starve
    cat["rdma_bulk"] = b[4] - b[3]
    cat["handler_pool_queue"] = b[5] - b[4]

    # Handler window [b5, b6]: child-span time is backend service, the
    # recorded bulk transfer is RDMA, the remainder is handler compute.
    handler_win = b[6] - b[5]
    child_windows = [
        (_ps(c.t1), _ps(c.t14))
        for c in span.children
        if c.t1 is not None and c.t14 is not None
    ]
    backend = _merged_ps(child_windows, b[5], b[6])
    bulk_ps = min(max(_ps(bulk), 0), handler_win - backend)
    cat["backend_service"] = backend
    cat["rdma_bulk"] += bulk_ps
    cat["handler_execute"] = handler_win - backend - bulk_ps

    segments = []
    for category, seg_start, dur in (
        ("client_serialize", b[0], b[1] - b[0]),
        ("network_transit", b[1], b[2] - b[1]),
        ("ofi_cq_backlog", b[2], t_backlog),
        ("progress_starvation", b[2] + t_backlog, t_starve),
        ("rdma_bulk", b[3], b[4] - b[3]),
        ("handler_pool_queue", b[4], b[5] - b[4]),
        ("backend_service", b[5], backend),
        ("rdma_bulk", b[5] + backend, bulk_ps),
        ("handler_execute", b[5] + backend + bulk_ps, cat["handler_execute"]),
        ("network_transit", b[6], b[7] - b[6]),
        ("ofi_cq_backlog", b[7], o_backlog),
        ("progress_starvation", b[7] + o_backlog, o_starve),
    ):
        if dur > 0:
            segments.append((category, seg_start, dur))

    # Blame: who occupied the contended resource during each wait.
    blame: dict[tuple[str, str], int] = {}
    t5_true = tus.true_ts
    for w_start, w_end, rpc, sid in handler_windows.get(target, ()):
        if sid == span.span_id:
            continue
        overlap = min(w_end, t5_true) - max(w_start, t4_true)
        if overlap > 0:
            key = ("handler_pool_queue", rpc)
            blame[key] = blame.get(key, 0) + _ps(overlap)
    for idx, lo, hi in (
        (tgt_idx, t_arrival_true, t4_true - irdma),
        (org_idx, t11_true, t14_true),
    ):
        if idx is None:
            continue
        for label, overlap in idx.occupants(lo, hi).items():
            key = ("progress_starvation", label)
            blame[key] = blame.get(key, 0) + _ps(overlap)
    blame_entries = tuple(
        BlameEntry(category=c, occupant=o, overlap_ps=p)
        for (c, o), p in sorted(blame.items())
        if p > 0
    )

    return RequestBreakdown(
        request_id=span.request_id,
        span_id=span.span_id,
        rpc_name=span.rpc_name,
        origin=origin,
        target=target,
        start_ps=start,
        total_ps=total,
        categories=cat,
        segments=tuple(segments),
        blame=blame_entries,
        start_true=min(ev.true_ts for ev in span.events),
        end_true=max(ev.true_ts for ev in span.events),
        n_faults=len(span.faults),
    )


@dataclass
class CriticalReport:
    """Everything the engine derived from one run's telemetry."""

    breakdowns: list
    #: rpc_name -> {"kind": .., "count": .., "delay_ps": ..} retry cost.
    retry_by_op: dict
    clock_offsets: dict
    n_requests: int
    n_incomplete: int

    # -- invariants ----------------------------------------------------------

    def check_invariant(self) -> None:
        """Raise if any request's categories do not sum to its total."""
        for bd in self.breakdowns:
            if not bd.check():
                raise AssertionError(
                    f"sum-to-total violated for request {bd.request_id} "
                    f"(span {bd.span_id}): {sum(bd.categories.values())} != "
                    f"{bd.total_ps}"
                )

    # -- aggregation ---------------------------------------------------------

    def operation_profiles(self) -> dict:
        """Per-operation breakdown: rpc -> count/total/category sums
        (integer ps), including aggregate retry backoff."""
        ops: dict[str, dict] = {}
        for bd in self.breakdowns:
            op = ops.get(bd.rpc_name)
            if op is None:
                op = ops[bd.rpc_name] = {
                    "count": 0,
                    "total_ps": 0,
                    "categories": dict.fromkeys(CATEGORIES, 0),
                }
            op["count"] += 1
            op["total_ps"] += bd.total_ps
            for name, v in bd.categories.items():
                op["categories"][name] += v
        for rpc, rec in self.retry_by_op.items():
            op = ops.get(rpc)
            if op is None:
                op = ops[rpc] = {
                    "count": 0,
                    "total_ps": 0,
                    "categories": dict.fromkeys(CATEGORIES, 0),
                }
            op["categories"]["retry_backoff"] += rec["delay_ps"]
            op["total_ps"] += rec["delay_ps"]
        return {rpc: ops[rpc] for rpc in sorted(ops)}

    def category_totals(self) -> dict:
        """Run-wide category sums (integer ps), retry backoff included."""
        totals = dict.fromkeys(CATEGORIES, 0)
        for bd in self.breakdowns:
            for name, v in bd.categories.items():
                totals[name] += v
        for rec in self.retry_by_op.values():
            totals["retry_backoff"] += rec["delay_ps"]
        return totals

    def render(self, top: int = 5) -> str:
        """Deterministic plain-text report (the Fig 11-12 narrative)."""
        totals = self.category_totals()
        grand = sum(totals.values())
        lines = [
            f"requests decomposed: {len(self.breakdowns)}   "
            f"incomplete: {self.n_incomplete}",
            f"{'category':<22} {'total':>14} {'share':>8}",
            "-" * 46,
        ]
        for name in CATEGORIES:
            v = totals[name]
            share = (100.0 * v / grand) if grand else 0.0
            lines.append(f"{name:<22} {v / 1e9:>12.6f}ms {share:>7.2f}%")
        slowest = sorted(
            self.breakdowns, key=lambda b: (-b.total_ps, b.request_id)
        )[:top]
        if slowest:
            lines.append("")
            lines.append(f"{'slowest requests':<24} {'latency':>12}  dominant")
            for bd in slowest:
                dom = max(
                    CATEGORIES, key=lambda c: (bd.categories[c], c)
                )
                lines.append(
                    f"{bd.request_id:<24} {bd.total_ps / 1e9:>10.6f}ms  "
                    f"{dom}"
                )
        return "\n".join(lines)


def _retry_by_op(retries: Iterable) -> dict:
    out: dict[str, dict] = {}
    for rec in retries:
        row = out.get(rec.rpc_name)
        if row is None:
            row = out[rec.rpc_name] = {
                "retries": 0,
                "timeouts": 0,
                "delay_ps": 0,
            }
        if rec.kind == "retry":
            row["retries"] += 1
        else:
            row["timeouts"] += 1
        row["delay_ps"] += max(_ps(rec.delay), 0)
    return {rpc: out[rpc] for rpc in sorted(out)}


def analyze(
    events: Sequence[TraceEvent],
    *,
    sched_slices: Iterable = (),
    retries: Iterable = (),
    annotations_by_process: Optional[dict] = None,
) -> CriticalReport:
    """Decompose every complete root span in ``events``.

    ``sched_slices`` (from the monitor's :class:`SchedRecorder`) enable
    the backlog-vs-starvation split and ES-occupancy blame; without them
    CQ waits degrade to all-backlog and blame covers only the handler
    pool.  ``retries`` feed the aggregate retry-backoff category.
    """
    summary: TraceSummary = stitch_traces(
        list(events), annotations_by_process=annotations_by_process
    )
    proc_index = _index_slices(sched_slices)

    roots: list[Span] = []
    n_incomplete = 0
    handler_windows: dict[str, list[tuple[float, float, str, int]]] = {}
    for req in summary.requests.values():
        for root in req.roots:
            for span in root.walk():
                quad = _span_events(span)
                tus = quad.get(EventKind.TARGET_ULT_START)
                tr = quad.get(EventKind.TARGET_RESPOND)
                if tus is not None and tr is not None:
                    handler_windows.setdefault(tus.process, []).append(
                        (tus.true_ts, tr.true_ts, span.rpc_name, span.span_id)
                    )
            if root.parent_span_id is None:
                if root.complete:
                    roots.append(root)
                else:
                    n_incomplete += 1
    for windows in handler_windows.values():
        windows.sort()

    breakdowns = []
    for span in roots:
        bd = _decompose(
            span, summary.clock_offsets, proc_index, handler_windows
        )
        if bd is not None:
            breakdowns.append(bd)
        else:  # pragma: no cover - complete spans always decompose
            n_incomplete += 1
    breakdowns.sort(key=lambda b: (b.start_ps, b.request_id, b.span_id))

    return CriticalReport(
        breakdowns=breakdowns,
        retry_by_op=_retry_by_op(retries),
        clock_offsets=dict(sorted(summary.clock_offsets.items())),
        n_requests=len(summary.requests),
        n_incomplete=n_incomplete,
    )


def analyze_collector(collector, monitor=None) -> CriticalReport:
    """Decompose a live run: a collector plus (optionally) its monitor."""
    anns = getattr(collector, "annotations_by_process", None)
    all_retries = getattr(collector, "all_retries", None)
    sched = monitor.sched.slices if monitor is not None else ()
    return analyze(
        collector.all_events(),
        sched_slices=sched,
        retries=all_retries() if all_retries is not None else (),
        annotations_by_process=anns() if anns is not None else None,
    )


def analyze_run(run) -> CriticalReport:
    """Decompose an :class:`~repro.store.archive.ArchivedRun` (or any
    object exposing the collector duck type plus ``sched_slices``)."""
    sched = getattr(run, "sched_slices", None)
    all_retries = getattr(run, "all_retries", None)
    anns = getattr(run, "annotations_by_process", None)
    return analyze(
        run.all_events(),
        sched_slices=sched() if sched is not None else (),
        retries=all_retries() if all_retries is not None else (),
        annotations_by_process=anns() if anns is not None else None,
    )


# -- finding annotation ----------------------------------------------------


def dominant_wait_state(finding, breakdowns: Iterable) -> str:
    """The wait category that dominated the requests surrounding a
    finding (same process, window covering the finding time); falls
    back to the detector's natural category when nothing overlaps."""
    totals = dict.fromkeys(WAIT_CATEGORIES, 0)
    hit = False
    for bd in breakdowns:
        if finding.process not in (bd.origin, bd.target):
            continue
        if not (bd.start_true <= finding.time <= bd.end_true):
            continue
        hit = True
        for name in WAIT_CATEGORIES:
            totals[name] += bd.categories.get(name, 0)
    if hit and any(totals.values()):
        return max(WAIT_CATEGORIES, key=lambda c: (totals[c], c))
    return _FALLBACK_WAIT.get(finding.detector, "")


def annotate_findings(findings: Sequence, report: CriticalReport) -> list:
    """Return findings with :attr:`Finding.wait_state` filled in."""
    return [
        replace(f, wait_state=dominant_wait_state(f, report.breakdowns))
        for f in findings
    ]
