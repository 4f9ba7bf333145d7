"""Distributed request tracing (paper §IV-A-2).

Trace events are generated at t1 and t14 on the origin and t5 and t8 on
the target of every RPC.  Each event carries:

* the globally unique *request id* minted by the end client,
* a per-request *order* counter propagated with the request,
* the process's *Lamport clock* (used by the stitcher to correct skewed
  local timestamps),
* the local (possibly drifted) wall-clock timestamp,
* a *span id* / *parent span id* pair for Zipkin-style visualizations,
* sampled PVAR values and OS/tasking statistics.

Events are buffered per process and consolidated by the analysis layer
after the run.

Storage is columnar: recording an event appends fixed-width scalars to
flat ``array`` columns (strings are interned to integer ids once per
distinct value), so the hot path never constructs a dataclass or a
dict.  The familiar :class:`TraceEvent` objects are materialized lazily
-- and cached -- the first time :attr:`TraceBuffer.events` is read,
which only happens at export/analysis time.
"""

from __future__ import annotations

import enum
import itertools
from array import array
from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = [
    "EventKind",
    "FaultAnnotation",
    "RetryRecord",
    "SpanIdAllocator",
    "TraceBuffer",
    "TraceEvent",
    "TRACE_DATA_KEYS",
    "TRACE_PVAR_FLOAT_KEYS",
    "TRACE_PVAR_INT_KEYS",
]


class SpanIdAllocator:
    """Run-scoped span-id source.

    One allocator is owned by each
    :class:`~repro.symbiosys.collector.SymbiosysCollector`, so span ids
    restart from 1 for every run and same-seed runs produce identical
    ids.  (A module-global ``itertools.count`` here used to leak ids
    across consecutive runs in one interpreter, which broke byte-level
    determinism of every export containing span ids.)
    """

    def __init__(self, start: int = 1):
        self._ids = itertools.count(start)

    def __call__(self) -> int:
        return next(self._ids)


class EventKind(enum.Enum):
    ORIGIN_FORWARD = "origin_forward"  # t1
    ORIGIN_COMPLETE = "origin_complete"  # t14
    TARGET_ULT_START = "target_ult_start"  # t5
    TARGET_RESPOND = "target_respond"  # t8


#: Kind materialization table, indexed by the integer kind code used in
#: the columnar buffer.
_KINDS = (
    EventKind.ORIGIN_FORWARD,
    EventKind.ORIGIN_COMPLETE,
    EventKind.TARGET_ULT_START,
    EventKind.TARGET_RESPOND,
)
_KIND_CODE = {kind: code for code, kind in enumerate(_KINDS)}

#: Per-kind schema of the ``data`` dict: every event of a kind carries
#: exactly these float-valued keys, so they live in fixed data columns.
TRACE_DATA_KEYS = (
    (),  # ORIGIN_FORWARD
    ("t1", "origin_execution_time", "t11"),  # ORIGIN_COMPLETE
    # TARGET_ULT_START
    ("t4", "target_handler_time", "t_arrival", "internal_rdma_transfer_time"),
    (
        "t8",
        "target_execution_time",
        "target_execution_time_exclusive",
        "bulk_transfer_time",
    ),  # TARGET_RESPOND
)

#: The NO_OBJECT PVARs fused into origin trace records at t14, in record
#: order.  All integer-valued; kept int-typed end to end because the
#: JSON trace export and Zipkin tags render ints and floats differently.
TRACE_PVAR_INT_KEYS = (
    "num_ofi_events_read",
    "completion_queue_size",
    "num_posted_handles",
    "num_forward_timeouts",
    "num_forward_retries",
    "num_failed_over_forwards",
    "num_late_responses_dropped",
)
#: The HANDLE-bound timer PVARs that follow, float-valued.
TRACE_PVAR_FLOAT_KEYS = (
    "input_serialization_time",
    "origin_completion_callback_time",
)

# Integer-column record layout (one stride per event).
_QSTRIDE = 12
_Q_REQ = 0  # interned request-id
_Q_RPC = 1  # interned rpc name
_Q_ORDER = 2
_Q_LAMPORT = 3
_Q_SPAN = 4
_Q_PARENT = 5  # -1 encodes parent_span_id=None
_Q_PROVIDER = 6
_Q_SS_BLOCKED = 7
_Q_SS_READY = 8
_Q_SS_RUNNING = 9
_Q_SS_MEM = 10
_Q_PVROW = 11  # row into the pvar side table, -1 if no pvars

# Float-column record layout.
_DSTRIDE = 7
_D_LOCAL = 0
_D_TRUE = 1
_D_SS_CPU = 2
_D_DATA0 = 3  # data values, in TRACE_DATA_KEYS[kind] order

_N_PV_INT = len(TRACE_PVAR_INT_KEYS)
_N_PV_FLOAT = len(TRACE_PVAR_FLOAT_KEYS)


@dataclass
class TraceEvent:
    """One point event in a distributed request trace."""

    kind: EventKind
    request_id: str
    order: int
    lamport: int
    process: str
    local_ts: float  # local clock (subject to drift/offset)
    true_ts: float  # simulator truth, kept for validation only
    rpc_name: str
    callpath: int
    span_id: int
    parent_span_id: Optional[int]
    provider_id: int = 0
    #: Extra measurements attached at the event (t4 spawn time, etc.).
    data: dict[str, Any] = field(default_factory=dict)
    #: PVAR samples fused into the trace record (FULL stage only).
    pvars: dict[str, Any] = field(default_factory=dict)
    #: OS / tasking-layer statistics (blocked ULTs, CPU, memory).
    sysstats: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class FaultAnnotation:
    """One injected fault recorded into a process's trace stream.

    Written by the :class:`~repro.faults.FaultInjector` for every
    process a fired fault touches, so the trace analysis can attribute
    latency spikes to injected faults instead of mislabelling them as
    emergent queueing.
    """

    time: float
    kind: str
    #: Deterministic identifying details (addresses, rpc names) -- the
    #: same tuple the injector's own event trace records.
    detail: tuple = ()


@dataclass(frozen=True)
class RetryRecord:
    """One retry/timeout episode on a forwarding client.

    Recorded by the instrumentation's ``on_forward_retry`` /
    ``on_forward_timeout`` hooks.  ``request_id`` is the id of the
    *failed attempt* (each top-level forward attempt mints a fresh one),
    so retry backoff shows up as aggregate/per-operation cost in the
    critical-path breakdown rather than inside any complete request's
    timeline.
    """

    process: str
    time: float
    request_id: str
    rpc_name: str
    #: 1-based attempt number for retries; 0 for bare timeouts.
    attempt: int
    #: Backoff delay about to be slept before the next attempt (retries
    #: only; 0.0 for timeouts).
    delay: float
    #: Next target address for retries, original target for timeouts.
    target: str
    #: ``"retry"`` or ``"timeout"``.
    kind: str


class TraceBuffer:
    """Per-process accumulation of trace events and fault annotations.

    Internally a structure-of-arrays: parallel ``array('q')`` /
    ``array('d')`` columns striped per event, an ``array('b')`` kind
    column, an ``array('Q')`` callpath column (callpath codes use the
    full unsigned 64-bit range), and a side table for the t14 PVAR
    samples that only origin-complete records carry.  Request ids and
    RPC names are interned into a per-buffer string table.

    :meth:`append_event` is the only way in: the allocation-free path
    the instrumentation hooks record through.  :attr:`events`
    materializes (and caches) :class:`TraceEvent` views of the rows.
    """

    def __init__(self, process: str):
        self.process = process
        #: Injected faults that touched this process, in firing order.
        self.annotations: list[FaultAnnotation] = []
        #: Retry/timeout episodes on this process, in firing order.
        self.retries: list[RetryRecord] = []
        self._n = 0
        self._kind = array("b")
        self._callpath = array("Q")
        self._q = array("q")
        self._d = array("d")
        self._pv_q = array("q")
        self._pv_d = array("d")
        self._n_pv = 0
        self._strings: list[str] = []
        self._str_ids: dict[str, int] = {}
        #: Materialized TraceEvent views for rows [0, len(_mat)).
        self._mat: list[TraceEvent] = []

    # -- recording (hot path) --------------------------------------------------

    def append_event(
        self,
        kind_code: int,
        request_id: str,
        order: int,
        lamport: int,
        local_ts: float,
        true_ts: float,
        rpc_name: str,
        callpath: int,
        span_id: int,
        parent_span_id: Optional[int],
        provider_id: int,
        num_blocked: int,
        num_ready: int,
        num_running: int,
        cpu_util: float,
        memory_bytes: int,
        d0: float = 0.0,
        d1: float = 0.0,
        d2: float = 0.0,
        d3: float = 0.0,
        pvars: Optional[tuple] = None,
    ) -> None:
        """Record one event as flat scalars -- no dataclass, no dicts.

        ``d0..d3`` are the ``data`` values in ``TRACE_DATA_KEYS[kind]``
        order; ``pvars`` is the 9-tuple of t14 samples
        (``TRACE_PVAR_INT_KEYS`` then ``TRACE_PVAR_FLOAT_KEYS`` order)
        or ``None``.
        """
        ids = self._str_ids
        req = ids.get(request_id)
        if req is None:
            req = ids[request_id] = len(self._strings)
            self._strings.append(request_id)
        rpc = ids.get(rpc_name)
        if rpc is None:
            rpc = ids[rpc_name] = len(self._strings)
            self._strings.append(rpc_name)
        if pvars is None:
            pvrow = -1
        else:
            pvrow = self._n_pv
            self._n_pv = pvrow + 1
            self._pv_q.extend(pvars[:_N_PV_INT])
            self._pv_d.extend(pvars[_N_PV_INT:])
        self._kind.append(kind_code)
        self._callpath.append(callpath)
        self._q.extend(
            (
                req,
                rpc,
                order,
                lamport,
                span_id,
                -1 if parent_span_id is None else parent_span_id,
                provider_id,
                num_blocked,
                num_ready,
                num_running,
                memory_bytes,
                pvrow,
            )
        )
        self._d.extend((local_ts, true_ts, cpu_util, d0, d1, d2, d3))
        self._n += 1

    def annotate(self, time: float, kind: str, detail: tuple = ()) -> None:
        """Record one injected fault (duck-called by the injector, so
        the faults layer needs no import of this module)."""
        self.annotations.append(FaultAnnotation(time, kind, tuple(detail)))

    def record_retry(
        self,
        time: float,
        request_id: str,
        rpc_name: str,
        attempt: int,
        delay: float,
        target: str,
        kind: str,
    ) -> None:
        """Record one retry/timeout episode (instrumentation hook path)."""
        self.retries.append(
            RetryRecord(
                process=self.process,
                time=time,
                request_id=request_id,
                rpc_name=rpc_name,
                attempt=attempt,
                delay=delay,
                target=target,
                kind=kind,
            )
        )

    # -- reading (materialization) ---------------------------------------------

    def _materialize(self, i: int) -> TraceEvent:
        q = self._q
        d = self._d
        qb = i * _QSTRIDE
        db = i * _DSTRIDE
        code = self._kind[i]
        strings = self._strings
        parent = q[qb + _Q_PARENT]
        pvrow = q[qb + _Q_PVROW]
        pvars: dict[str, Any] = {}
        if pvrow >= 0:
            pq = pvrow * _N_PV_INT
            pd = pvrow * _N_PV_FLOAT
            pv_q = self._pv_q
            pv_d = self._pv_d
            for j, name in enumerate(TRACE_PVAR_INT_KEYS):
                pvars[name] = pv_q[pq + j]
            for j, name in enumerate(TRACE_PVAR_FLOAT_KEYS):
                pvars[name] = pv_d[pd + j]
        keys = TRACE_DATA_KEYS[code]
        data = {key: d[db + _D_DATA0 + j] for j, key in enumerate(keys)}
        return TraceEvent(
            kind=_KINDS[code],
            request_id=strings[q[qb + _Q_REQ]],
            order=q[qb + _Q_ORDER],
            lamport=q[qb + _Q_LAMPORT],
            process=self.process,
            local_ts=d[db + _D_LOCAL],
            true_ts=d[db + _D_TRUE],
            rpc_name=strings[q[qb + _Q_RPC]],
            callpath=self._callpath[i],
            span_id=q[qb + _Q_SPAN],
            parent_span_id=None if parent < 0 else parent,
            provider_id=q[qb + _Q_PROVIDER],
            data=data,
            pvars=pvars,
            sysstats={
                "num_blocked": q[qb + _Q_SS_BLOCKED],
                "num_ready": q[qb + _Q_SS_READY],
                "num_running": q[qb + _Q_SS_RUNNING],
                "cpu_util": d[db + _D_SS_CPU],
                "memory_bytes": q[qb + _Q_SS_MEM],
            },
        )

    @property
    def events(self) -> list[TraceEvent]:
        """Materialized event views, in append order.

        Rows are materialized once and cached, so repeated reads (and
        identity across exporters) are stable.
        """
        mat = self._mat
        n = self._n
        if len(mat) != n:
            materialize = self._materialize
            for i in range(len(mat), n):
                mat.append(materialize(i))
        return mat

    def __len__(self) -> int:
        return self._n
