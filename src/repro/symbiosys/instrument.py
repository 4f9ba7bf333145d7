"""The SYMBIOSYS instrumentation implementation of the Margo hooks.

One instance per Mochi process.  Depending on the configured
:class:`~repro.symbiosys.stages.Stage` it:

* propagates callpath ancestry and trace metadata in RPC headers
  (STAGE1+),
* measures the Table III intervals with the strategy the paper uses for
  each -- ULT-local keys for origin execution / target handler / target
  execution / target completion-callback time; Mercury handle PVARs for
  the (de)serialization, internal-RDMA, and origin-callback intervals --
  and feeds per-process origin/target profile stores (STAGE2+),
* emits trace events at t1/t14 (origin) and t5/t8 (target) with sampled
  OS and tasking statistics (STAGE2+),
* opens a PVAR session against Mercury and fuses sampled PVAR values into
  profiles and trace records on the fly (FULL).
"""

from __future__ import annotations

from typing import Any, Optional, TYPE_CHECKING

from ..margo.hooks import Instrumentation
from .callpath import CallpathRegistry, push
from .profiling import ProfileStore
from .stages import Stage
from .tracing import (
    _KIND_CODE,
    TRACE_PVAR_INT_KEYS,
    EventKind,
    SpanIdAllocator,
    TraceBuffer,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..argobots import ULT
    from ..mercury import HGHandle, PvarSession
    from ..margo import MargoInstance

__all__ = ["SymbiosysInstrumentation"]

# Columnar kind codes for the TraceBuffer.append_event hot path.
_K_ORIGIN_FORWARD = _KIND_CODE[EventKind.ORIGIN_FORWARD]
_K_ORIGIN_COMPLETE = _KIND_CODE[EventKind.ORIGIN_COMPLETE]
_K_TARGET_ULT_START = _KIND_CODE[EventKind.TARGET_ULT_START]
_K_TARGET_RESPOND = _KIND_CODE[EventKind.TARGET_RESPOND]

#: NO_OBJECT PVARs sampled into origin-side trace events at t14.  The
#: resilience gauges ride along so faulted runs expose degraded-mode
#: state in every origin trace record.  The order is the trace record
#: schema, owned by the tracing module.
_T14_PVARS = TRACE_PVAR_INT_KEYS
#: HANDLE PVARs sampled on the target at handler end (t13).
_TARGET_HANDLE_PVARS = (
    "input_deserialization_time",
    "output_serialization_time",
    "internal_rdma_transfer_time",
    "bulk_transfer_time",
)


class SymbiosysInstrumentation(Instrumentation):
    """Per-process instrumentation state + hook implementations."""

    def __init__(
        self,
        stage: Stage,
        registry: CallpathRegistry,
        span_ids: Optional[SpanIdAllocator] = None,
    ):
        self.stage = stage
        self.registry = registry
        #: Run-scoped span-id source -- shared across the run's processes
        #: when handed out by a collector, private otherwise.  Never a
        #: module global (span ids appear in exports and must be
        #: identical across same-seed runs).
        self.span_ids = span_ids if span_ids is not None else SpanIdAllocator()
        self.process: Optional[str] = None
        self.mi: Optional["MargoInstance"] = None
        self.origin_profile = ProfileStore()
        self.target_profile = ProfileStore()
        self.trace: Optional[TraceBuffer] = None
        self._pvar_session: Optional["PvarSession"] = None
        #: Bound zero-arg readers for _T14_PVARS, resolved once at
        #: attach time (FULL stage only).
        self._t14_readers: tuple = ()

    # -- wiring ---------------------------------------------------------------

    def attach(self, mi: "MargoInstance") -> None:
        """Called by MargoInstance at construction time."""
        self.process = mi.addr
        self.mi = mi
        self.trace = TraceBuffer(mi.addr)
        mi.hg.pvars_enabled = self.stage >= Stage.FULL
        if self.stage >= Stage.FULL:
            # The faithful data-exchange path: a PVAR session opened from
            # Margo's init routine (paper §IV-C).  Each sampled PVAR is
            # resolved to its slot once, here, so the per-RPC t14 fusion
            # is a flat tuple of bound reads.
            self._pvar_session = mi.hg.pvar_session_init()
            self._t14_readers = tuple(
                self._pvar_session.reader(name) for name in _T14_PVARS
            )

    def resilience_counters(self) -> dict[str, int]:
        """Degraded-mode gauges of the attached process (always live --
        the resilience counters are not gated on the stage)."""
        if self.mi is None:
            return {}
        return self.mi.resilience_counters()

    # -- helpers ---------------------------------------------------------------

    @staticmethod
    def _ctx(
        ult: Optional["ULT"], mi: "MargoInstance", new_request: bool = False
    ) -> dict:
        """The per-request trace context living in ULT-local storage.

        Handler ULTs inherit their context from the incoming request
        header (set by ``on_handler_start``); an end-client ULT gets a
        fresh globally unique request id for every top-level forward
        (``new_request=True``), so each application operation is its own
        distributed trace.
        """
        if ult is None:
            return {"request_id": mi.next_request_id(), "next_order": 0}
        ctx = ult.local.get("trace_ctx")
        if ctx is None or (new_request and not ctx.get("inherited")):
            ctx = {"request_id": mi.next_request_id(), "next_order": 0}
            ult.local["trace_ctx"] = ctx
        return ctx

    @staticmethod
    def _take_order(ctx: dict) -> int:
        order = ctx["next_order"]
        ctx["next_order"] = order + 1
        return order

    def _sample_t14_pvars(self, handle: "HGHandle") -> tuple:
        """The 9-tuple of t14 samples in trace-record order
        (TRACE_PVAR_INT_KEYS then the two handle timer PVARs)."""
        return tuple(r() for r in self._t14_readers) + (
            handle.pvar_get_or("input_serialization_time"),
            handle.pvar_get_or("origin_completion_callback_time"),
        )

    # -- origin hooks ----------------------------------------------------------------

    def on_forward(self, mi, handle, ult) -> None:
        if self.stage < Stage.STAGE1:
            return
        self.registry.register(handle.rpc_name)
        parent_code = ult.local.get("callpath", 0) if ult is not None else 0
        code = push(parent_code, handle.rpc_name)
        ctx = self._ctx(ult, mi, new_request=True)
        span_id = self.span_ids()
        parent_span = ult.local.get("span_id") if ult is not None else None
        lamport = mi.lamport_tick()
        order = self._take_order(ctx)

        header = handle.header
        header["callpath"] = code
        header["request_id"] = ctx["request_id"]
        header["order"] = ctx["next_order"]  # next value for the target
        header["lamport"] = lamport
        header["span_id"] = span_id
        header["parent_span_id"] = parent_span

        if ult is not None:
            # Origin execution time uses the ULT-local key strategy.
            ult.local[("t1", handle.cookie)] = mi.sim.now

        if self.stage >= Stage.STAGE2:
            rt = mi.rt
            self.trace.append_event(
                _K_ORIGIN_FORWARD,
                ctx["request_id"],
                order,
                lamport,
                mi.local_time(),
                mi.sim.now,
                handle.rpc_name,
                code,
                span_id,
                parent_span,
                header.get("provider_id", 0),
                rt.num_blocked,
                rt.num_ready,
                rt.num_running,
                mi.stats.cpu_utilization(),
                mi.stats.memory_bytes,
            )

    def on_forward_complete(self, mi, handle, ult, t1: float, t14: float) -> None:
        if self.stage < Stage.STAGE2:
            return
        header = handle.header
        code = header.get("callpath", 0)
        # Retrieve t1 through the ULT-local key, as the paper does.
        t1_local = (
            ult.local.pop(("t1", handle.cookie), t1) if ult is not None else t1
        )
        origin_exec = t14 - t1_local

        row = self.origin_profile.row((code, mi.addr, handle.target_addr))
        row["origin_execution_time"].append(origin_exec)

        lamport = mi.lamport_receive(header.get("lamport", 0))
        ctx = self._ctx(ult, mi)
        ctx["next_order"] = max(ctx["next_order"], header.get("order", 0))
        order = self._take_order(ctx)

        pvars: Optional[tuple] = None
        if self.stage >= Stage.FULL:
            pvars = self._sample_t14_pvars(handle)
            row["input_serialization_time"].append(pvars[-2])
            row["origin_completion_callback_time"].append(pvars[-1])

        rt = mi.rt
        self.trace.append_event(
            _K_ORIGIN_COMPLETE,
            ctx["request_id"],
            order,
            lamport,
            # The event belongs to t14 (the completion callback); the
            # hook itself runs when the caller ULT resumes, so map the
            # callback instant through the local clock explicitly.
            mi.clock.read(t14),
            t14,
            handle.rpc_name,
            code,
            header.get("span_id", 0),
            header.get("parent_span_id"),
            header.get("provider_id", 0),
            rt.num_blocked,
            rt.num_ready,
            rt.num_running,
            mi.stats.cpu_utilization(),
            mi.stats.memory_bytes,
            t1_local,
            origin_exec,
            # t11: when the response reached the origin endpoint CQ, so
            # the critical-path engine can split transit from origin-side
            # completion wait.  Falls back to t14 (zero wait) when the
            # mark is missing (e.g. failed-over handles).
            handle.marks.get("t11", t14),
            pvars=pvars,
        )

    def on_forward_timeout(self, mi, handle, ult, timeout: float) -> None:
        if self.stage < Stage.STAGE2 or self.trace is None:
            return
        ctx = self._ctx(ult, mi)
        self.trace.record_retry(
            mi.sim.now,
            ctx["request_id"],
            handle.rpc_name if handle is not None else "?",
            0,
            0.0,
            handle.target_addr if handle is not None else "?",
            "timeout",
        )

    def on_forward_retry(
        self, mi, handle, ult, attempt: int, delay: float, target: str
    ) -> None:
        if self.stage < Stage.STAGE2 or self.trace is None:
            return
        # The context still holds the failed attempt's request id (the
        # next attempt mints a fresh one in on_forward), so the backoff
        # is attributed to the attempt that failed.
        ctx = self._ctx(ult, mi)
        self.trace.record_retry(
            mi.sim.now,
            ctx["request_id"],
            handle.rpc_name if handle is not None else "?",
            attempt,
            delay,
            target,
            "retry",
        )

    # -- target hooks ---------------------------------------------------------------

    def on_handler_start(self, mi, handle, ult) -> None:
        if self.stage < Stage.STAGE1:
            return
        header = handle.header
        # Continue the distributed chain: downstream RPCs made by this ULT
        # extend the ancestry we received.
        ult.local["callpath"] = header.get("callpath", 0)
        ult.local["span_id"] = header.get("span_id")
        ult.local["trace_ctx"] = {
            "request_id": header.get("request_id", f"orphan-{handle.cookie}"),
            "next_order": header.get("order", 0),
            "inherited": True,
        }
        ult.local["child_rpc_time"] = 0.0
        lamport = mi.lamport_receive(header.get("lamport", 0))

        if self.stage < Stage.STAGE2:
            return
        t4 = handle.marks.get("t4", mi.sim.now)
        t5 = handle.marks.get("t5", mi.sim.now)
        # ULT-local key strategy for the handler-pool delay.
        ult.local["target_handler_time"] = t5 - t4
        ctx = ult.local["trace_ctx"]
        order = self._take_order(ctx)
        rt = mi.rt
        self.trace.append_event(
            _K_TARGET_ULT_START,
            ctx["request_id"],
            order,
            lamport,
            mi.local_time(),
            mi.sim.now,
            handle.rpc_name,
            header.get("callpath", 0),
            header.get("span_id", 0),
            header.get("parent_span_id"),
            header.get("provider_id", 0),
            rt.num_blocked,
            rt.num_ready,
            rt.num_running,
            mi.stats.cpu_utilization(),
            mi.stats.memory_bytes,
            t4,
            t5 - t4,
            # t_arrival: when the request reached the target endpoint CQ
            # (before progress picked it up); the internal-RDMA time is
            # carved out of [t_arrival, t4] by the critical-path engine.
            handle.marks.get("t_arrival", t4),
            handle.pvar_get_or("internal_rdma_transfer_time", 0.0),
        )

    def on_respond(self, mi, handle, ult) -> None:
        if self.stage < Stage.STAGE1:
            return
        header = handle.header
        lamport = mi.lamport_tick()
        header["lamport"] = lamport
        ctx = self._ctx(ult, mi)
        if self.stage >= Stage.STAGE2:
            t5 = handle.marks.get("t5", 0.0)
            t8 = handle.marks["t8"]
            exec_incl = t8 - t5
            exec_excl = exec_incl - ult.local.get("child_rpc_time", 0.0)
            ult.local["target_execution_time"] = exec_incl
            ult.local["target_execution_time_exclusive"] = exec_excl
            order = self._take_order(ctx)
            header["order"] = ctx["next_order"]
            rt = mi.rt
            self.trace.append_event(
                _K_TARGET_RESPOND,
                ctx["request_id"],
                order,
                lamport,
                mi.local_time(),
                mi.sim.now,
                handle.rpc_name,
                header.get("callpath", 0),
                header.get("span_id", 0),
                header.get("parent_span_id"),
                header.get("provider_id", 0),
                rt.num_blocked,
                rt.num_ready,
                rt.num_running,
                mi.stats.cpu_utilization(),
                mi.stats.memory_bytes,
                t8,
                exec_incl,
                exec_excl,
                handle.pvar_get_or("bulk_transfer_time", 0.0),
            )
        else:
            header["order"] = ctx["next_order"]

    def on_handler_end(self, mi, handle, ult) -> None:
        if self.stage < Stage.STAGE2:
            return
        header = handle.header
        code = header.get("callpath", 0)
        row = self.target_profile.row((code, handle.origin_addr, mi.addr))
        t8 = handle.marks["t8"]
        t13 = handle.marks.get("t13", t8)
        local = ult.local
        row["target_handler_time"].append(local.get("target_handler_time", 0.0))
        row["target_execution_time"].append(
            local.get("target_execution_time", 0.0)
        )
        row["target_execution_time_exclusive"].append(
            local.get("target_execution_time_exclusive", 0.0)
        )
        # ULT-local key strategy: t8 -> t13.
        row["target_completion_callback_time"].append(t13 - t8)
        if self.stage >= Stage.FULL:
            pvar = handle.pvar_get_or
            for name in _TARGET_HANDLE_PVARS:
                value = pvar(name, None)
                if value is not None:
                    row[name].append(value)
