"""Zipkin v2 JSON export of stitched traces (Figure 5's visualization).

"SYMBIOSYS enables this Gantt chart visualization through an adapter
module that stitches the events with a common requestID from different
processes into a Zipkin JSON trace file."  This is that adapter: the
output loads directly into OpenZipkin/Jaeger UI.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable

from .analysis.trace_summary import RequestTrace, Span

__all__ = ["span_to_zipkin", "request_to_zipkin", "to_zipkin_json"]

_US = 1e6  # Zipkin uses integer microseconds


def _trace_id(request_id: str) -> str:
    return hashlib.sha256(request_id.encode()).hexdigest()[:16]


def _span_id(span_id: int) -> str:
    return f"{span_id:016x}"


def span_to_zipkin(span: Span, trace_id: str) -> dict:
    """One Zipkin v2 span dict for a reconstructed RPC span."""
    if span.t1 is None:
        raise ValueError(f"span {span.span_id} has no origin-forward event")
    record = {
        "traceId": trace_id,
        "id": _span_id(span.span_id),
        "name": span.rpc_name,
        "kind": "CLIENT",
        "timestamp": int(span.t1 * _US),
        "localEndpoint": {"serviceName": span.origin_process},
        "tags": {"callpath": f"{span.callpath:#018x}"},
    }
    if span.parent_span_id is not None:
        record["parentId"] = _span_id(span.parent_span_id)
    if span.duration is not None:
        record["duration"] = max(1, int(span.duration * _US))
    if span.target_process:
        record["remoteEndpoint"] = {"serviceName": span.target_process}
    annotations = []
    if span.t5 is not None:
        annotations.append({"timestamp": int(span.t5 * _US), "value": "target ULT start (t5)"})
    if span.t8 is not None:
        annotations.append({"timestamp": int(span.t8 * _US), "value": "target respond (t8)"})
    # Injected faults attributed to this span's window show up as
    # timestamped annotations, so the Gantt chart explains its own
    # latency spikes.  (Fault times are true sim time; the span's
    # corrected timeline is close enough for display purposes.)
    for ann in span.faults:
        detail = " ".join(str(d) for d in ann.detail)
        annotations.append({
            "timestamp": int(ann.time * _US),
            "value": f"fault:{ann.kind} {detail}".rstrip(),
        })
    if span.faults:
        record["tags"]["faults"] = str(len(span.faults))
    if annotations:
        annotations.sort(key=lambda a: (a["timestamp"], a["value"]))
        record["annotations"] = annotations
    # Fuse sampled PVARs from the completion event into tags.
    for ev in span.events:
        for pname, pval in ev.pvars.items():
            record["tags"][f"pvar.{pname}"] = str(pval)
    return record


def request_to_zipkin(request: RequestTrace) -> list[dict]:
    trace_id = _trace_id(request.request_id)
    spans = []
    for root in request.roots:
        for span in root.walk():
            if span.t1 is not None:
                spans.append(span_to_zipkin(span, trace_id))
    spans.sort(key=lambda s: s["timestamp"])
    return spans


def to_zipkin_json(requests: Iterable[RequestTrace], indent: int = 2) -> str:
    """A Zipkin JSON document covering every given request."""
    all_spans: list[dict] = []
    for request in requests:
        all_spans.extend(request_to_zipkin(request))
    return json.dumps(all_spans, indent=indent)
