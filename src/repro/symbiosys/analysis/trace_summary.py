"""Trace stitching and summarization: the paper's "trace summary script".

Consolidates the per-process trace buffers, groups events by request id,
reconstructs the span tree of every request (discovering the *individual
request structure* of §V-A-3), and corrects clock skew.

Skew correction combines two mechanisms:

* **Lamport ordering** -- every event carries the process's Lamport
  clock, updated with the received clock on message receipt; sorting by
  ``(lamport, order)`` yields a valid happened-before linearization even
  with arbitrarily skewed local clocks (the paper's §IV-A-2 mechanism).
* **Offset estimation** -- for timestamp alignment (Gantt charts), the
  per-process clock offset is estimated from the forward/backward
  message deltas of every completed span, NTP-style:
  ``offset ≈ (Δforward − Δbackward) / 2``, anchored at a reference
  process and propagated across the process graph.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..tracing import EventKind, FaultAnnotation, TraceEvent

__all__ = [
    "Span",
    "RequestTrace",
    "TraceSummary",
    "estimate_clock_offsets",
    "stitch_traces",
    "trace_summary",
    "blocked_ult_samples",
    "ofi_events_series",
]


@dataclass
class Span:
    """One RPC reconstructed from its (up to) four trace events."""

    span_id: int
    parent_span_id: Optional[int]
    request_id: str
    rpc_name: str
    callpath: int
    origin_process: str = ""
    target_process: str = ""
    #: Corrected timestamps (reference-process timeline).
    t1: Optional[float] = None
    t5: Optional[float] = None
    t8: Optional[float] = None
    t14: Optional[float] = None
    events: list[TraceEvent] = field(default_factory=list)
    children: list["Span"] = field(default_factory=list)
    #: Injected faults that fired on this span's origin/target process
    #: inside its observed time window -- the attribution that separates
    #: "latency spike caused by an injected fault" from emergent
    #: queueing.  Empty without a fault plan.
    faults: list[FaultAnnotation] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return None not in (self.t1, self.t5, self.t8, self.t14)

    @property
    def duration(self) -> Optional[float]:
        if self.t1 is None or self.t14 is None:
            return None
        return self.t14 - self.t1

    def walk(self) -> Iterable["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass
class RequestTrace:
    """All spans of one end-to-end request."""

    request_id: str
    roots: list[Span]
    spans: dict[int, Span]

    @property
    def end_to_end_latency(self) -> float:
        durations = [s.duration for s in self.roots if s.duration is not None]
        return max(durations) if durations else 0.0

    def discrete_calls(self) -> list[str]:
        """The RPC names of every non-root span, in start order --
        the '12 discrete SDSKV and BAKE microservice calls' view of
        Figure 5."""
        subs = [
            s
            for root in self.roots
            for s in root.walk()
            if s is not root
        ]
        subs.sort(key=lambda s: (s.t1 if s.t1 is not None else float("inf")))
        return [s.rpc_name for s in subs]

    def structure_signature(self) -> tuple:
        """Shape of the request: (root rpc, sorted child rpc multiset)."""

        def sig(span: Span) -> tuple:
            return (
                span.rpc_name,
                tuple(sorted(sig(c) for c in span.children)),
            )

        return tuple(sorted(sig(r) for r in self.roots))


@dataclass
class TraceSummary:
    requests: dict[str, RequestTrace]
    clock_offsets: dict[str, float]
    total_events: int
    #: Every fault annotation recorded during the run (firing order).
    annotations: list[FaultAnnotation] = field(default_factory=list)

    def slowest(self, n: int = 10) -> list[RequestTrace]:
        return sorted(
            self.requests.values(),
            key=lambda r: r.end_to_end_latency,
            reverse=True,
        )[:n]

    def structure_counts(self) -> dict[tuple, int]:
        out: dict[tuple, int] = {}
        for req in self.requests.values():
            key = req.structure_signature()
            out[key] = out.get(key, 0) + 1
        return out

    def render(self, n: int = 5) -> str:
        lines = [
            f"requests: {len(self.requests)}   events: {self.total_events}",
            f"{'request':<24} {'latency':>12} {'spans':>6}",
            "-" * 46,
        ]
        for req in self.slowest(n):
            lines.append(
                f"{req.request_id:<24} {req.end_to_end_latency * 1e3:>10.4f}ms "
                f"{len(req.spans):>6}"
            )
        if self.annotations:
            # Spans whose window covers an injected fault on an
            # involved process.
            attributed = sum(
                1
                for req in self.requests.values()
                for root in req.roots
                for s in root.walk()
                if s.faults
            )
            lines.append(
                f"injected faults: {len(self.annotations)}   "
                f"spans attributed: {attributed}"
            )
        return "\n".join(lines)


def estimate_clock_offsets(events: list[TraceEvent]) -> dict[str, float]:
    """Estimate each process's clock offset from span message deltas.

    Returns offsets such that ``corrected = local_ts - offset[process]``
    puts all processes on the reference process's timeline.
    """
    # Collect per-span event quadruples.
    by_span: dict[int, dict[EventKind, TraceEvent]] = {}
    for ev in events:
        by_span.setdefault(ev.span_id, {})[ev.kind] = ev

    # Pairwise delta samples: the forward leg carries +offset(B-A) plus
    # queueing, the backward leg carries -offset(B-A) plus queueing.
    # Queueing only ever *adds* delay, so the NTP trick applies: estimate
    # from the minimum-delay samples, where the deltas are closest to
    # pure (symmetric) wire latency.
    fwd: dict[tuple[str, str], list[float]] = {}
    bwd: dict[tuple[str, str], list[float]] = {}
    for quad in by_span.values():
        of = quad.get(EventKind.ORIGIN_FORWARD)
        tus = quad.get(EventKind.TARGET_ULT_START)
        tr = quad.get(EventKind.TARGET_RESPOND)
        oc = quad.get(EventKind.ORIGIN_COMPLETE)
        if None in (of, tus, tr, oc):
            continue
        a, b = of.process, tus.process
        if a == b:
            continue
        fwd.setdefault((a, b), []).append(tus.local_ts - of.local_ts)
        bwd.setdefault((a, b), []).append(oc.local_ts - tr.local_ts)

    mean_off: dict[tuple[str, str], float] = {
        pair: (min(fwd[pair]) - min(bwd[pair])) / 2.0 for pair in fwd
    }
    adj: dict[str, list[tuple[str, float]]] = {}
    for (a, b), off in mean_off.items():
        adj.setdefault(a, []).append((b, off))
        adj.setdefault(b, []).append((a, -off))

    processes = sorted({ev.process for ev in events})
    offsets: dict[str, float] = {}
    for start in processes:
        if start in offsets:
            continue
        offsets[start] = 0.0  # anchor each connected component
        queue = deque([start])
        while queue:
            cur = queue.popleft()
            for nxt, off in adj.get(cur, []):
                if nxt not in offsets:
                    offsets[nxt] = offsets[cur] + off
                    queue.append(nxt)
    return offsets


def _attribute_faults(
    spans: dict[int, Span],
    annotations_by_process: dict[str, list[FaultAnnotation]],
) -> None:
    """Attach each fault annotation to every span whose observed
    [first-event, last-event] true-time window covers it on an involved
    process.  Completed-but-slow spans (wire delays, handler stalls,
    duplicates) attribute exactly; spans killed outright by a fault
    never complete and stay unattributed by design."""
    for span in spans.values():
        if not span.events:
            continue
        start = min(ev.true_ts for ev in span.events)
        end = max(ev.true_ts for ev in span.events)
        procs = {span.origin_process, span.target_process} - {""}
        for proc in sorted(procs):
            for ann in annotations_by_process.get(proc, ()):
                if start <= ann.time <= end:
                    span.faults.append(ann)
        span.faults.sort(key=lambda a: (a.time, a.kind, a.detail))


def stitch_traces(
    events: list[TraceEvent],
    annotations_by_process: Optional[dict[str, list[FaultAnnotation]]] = None,
) -> TraceSummary:
    """Group events into spans and spans into request trees, with
    skew-corrected timestamps.

    ``annotations_by_process`` (as returned by
    ``SymbiosysCollector.annotations_by_process``) enables fault
    attribution: each injected-fault annotation is attached to the spans
    whose window covers it (see :attr:`Span.faults`)."""
    offsets = estimate_clock_offsets(events)

    spans: dict[int, Span] = {}
    for ev in sorted(events, key=lambda e: (e.lamport, e.order)):
        span = spans.get(ev.span_id)
        if span is None:
            span = spans[ev.span_id] = Span(
                span_id=ev.span_id,
                parent_span_id=ev.parent_span_id,
                request_id=ev.request_id,
                rpc_name=ev.rpc_name,
                callpath=ev.callpath,
            )
        span.events.append(ev)
        ts = ev.local_ts - offsets.get(ev.process, 0.0)
        if ev.kind is EventKind.ORIGIN_FORWARD:
            span.origin_process = ev.process
            span.t1 = ts
        elif ev.kind is EventKind.TARGET_ULT_START:
            span.target_process = ev.process
            span.t5 = ts
        elif ev.kind is EventKind.TARGET_RESPOND:
            span.target_process = ev.process
            span.t8 = ts
        elif ev.kind is EventKind.ORIGIN_COMPLETE:
            span.origin_process = ev.process
            span.t14 = ts

    requests: dict[str, RequestTrace] = {}
    by_request: dict[str, list[Span]] = {}
    for span in spans.values():
        by_request.setdefault(span.request_id, []).append(span)

    for request_id, req_spans in by_request.items():
        index = {s.span_id: s for s in req_spans}
        roots: list[Span] = []
        for span in req_spans:
            parent = (
                index.get(span.parent_span_id)
                if span.parent_span_id is not None
                else None
            )
            if parent is None:
                roots.append(span)
            else:
                parent.children.append(span)
        for span in req_spans:
            span.children.sort(
                key=lambda s: (s.t1 if s.t1 is not None else float("inf"))
            )
        requests[request_id] = RequestTrace(
            request_id=request_id, roots=roots, spans=index
        )

    annotations: list[FaultAnnotation] = []
    if annotations_by_process:
        _attribute_faults(spans, annotations_by_process)
        # Wire faults are recorded into both endpoints' buffers; the
        # flat view dedupes them (FaultAnnotation is frozen/hashable).
        annotations = sorted(
            {a for anns in annotations_by_process.values() for a in anns},
            key=lambda a: (a.time, a.kind, a.detail),
        )

    return TraceSummary(
        requests=requests,
        clock_offsets=offsets,
        total_events=len(events),
        annotations=annotations,
    )


def trace_summary(collector) -> TraceSummary:
    """Stitch everything the collector gathered, including any fault
    annotations the injector recorded into the per-process buffers."""
    return stitch_traces(
        collector.all_events(),
        annotations_by_process=collector.annotations_by_process(),
    )


# -- figure-extraction helpers -------------------------------------------------


def blocked_ult_samples(
    events: list[TraceEvent], target_process: Optional[str] = None
) -> list[tuple[float, int, str]]:
    """(t4, blocked-ULT count, target process) samples from handler-start
    events: the Figure 10 scatter."""
    out = []
    for ev in events:
        if ev.kind is not EventKind.TARGET_ULT_START:
            continue
        if target_process is not None and ev.process != target_process:
            continue
        out.append(
            (ev.data.get("t4", ev.true_ts), ev.sysstats.get("num_blocked", 0), ev.process)
        )
    out.sort()
    return out


def ofi_events_series(
    events: list[TraceEvent], process: Optional[str] = None
) -> list[tuple[float, int]]:
    """(timestamp, num_ofi_events_read) samples from origin-completion
    events: the Figure 12 series."""
    out = []
    for ev in events:
        if ev.kind is not EventKind.ORIGIN_COMPLETE:
            continue
        if process is not None and ev.process != process:
            continue
        if "num_ofi_events_read" in ev.pvars:
            out.append((ev.true_ts, ev.pvars["num_ofi_events_read"]))
    out.sort()
    return out
