"""Simulated Mercury: RPC core, progress engine, and PVAR export.

The implementation drives the exact t1..t14 event timeline of Figure 2:

====  =======================================================================
t1    origin generates the RPC request (``forward`` entered)
t2-3  input serialized (CPU on the origin ULT) and sent eagerly
t3-4  eager-buffer overflow pulled through an *internal RDMA* transfer
t4    request-arrival callback runs on the target (Margo spawns the ULT)
t5    handler ULT starts executing
t6-7  input deserialized (``get_input``)
t8    handler issues the response (``respond`` entered)
t9-10 output serialized
t11   response reaches the origin's network layer (endpoint CQ)
t12   origin progress loop moves the completion callback to the HG queue
t13   target's response-sent callback triggers
t14   origin completion callback runs
====  =======================================================================

Mercury never blocks a caller: ``forward``/``respond`` register callbacks
which the progress/trigger loop invokes.  Margo layers the blocking
semantics (eventuals) on top.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..argobots import AbtRuntime, Compute
from ..config import Replaceable
from ..net import CQEntry, CQKind, Endpoint, Fabric, Message
from ..sim import Simulator
from .pvar import PvarBinding, PvarClass, PvarDef, PvarError, PvarRegistry, PvarSession
from .serialization import SerializationModel, estimate_size

__all__ = [
    "HGConfig",
    "HGCore",
    "HGHandle",
    "RESILIENCE_PVARS",
    "RequestWire",
    "ResponseWire",
]

# Cookies are allocated per HGCore instance (see __init__), not from a
# module-global counter: a cookie only ever routes within its origin
# (``_posted`` lives on the origin core), so per-instance uniqueness
# suffices -- and instance-local allocation keeps cookie sequences
# identical whether clusters share one interpreter or run in separate
# OS processes (``--jobs 1`` vs ``--jobs N`` output identity depends on
# this).

#: The degraded-mode gauges of the resilience layer, in report order.
RESILIENCE_PVARS = (
    "num_forward_timeouts",
    "num_forward_retries",
    "num_failed_over_forwards",
    "num_late_responses_dropped",
)


@dataclass(frozen=True, kw_only=True)
class HGConfig(Replaceable):
    """Tunable Mercury parameters.

    ``ofi_max_events`` is the paper's ``OFI_max_events``: the most
    completion entries one progress iteration will read (default 16, as in
    Mercury).  ``eager_size`` bounds the metadata that travels inline with
    the request; anything larger goes through the internal RDMA path.
    """

    eager_size: int = 4096
    ofi_max_events: int = 16
    rpc_header_size: int = 64
    post_cost: float = 0.4e-6  # CPU to post a send descriptor
    callback_cost: float = 0.25e-6  # CPU per triggered callback

    def __post_init__(self) -> None:
        if self.eager_size < 0:
            raise ValueError("eager_size must be non-negative")
        if self.ofi_max_events < 1:
            raise ValueError("ofi_max_events must be at least 1")
        if self.post_cost < 0 or self.callback_cost < 0:
            raise ValueError("costs must be non-negative")


@dataclass
class RequestWire:
    """What travels from origin to target for one RPC."""

    cookie: int
    rpc_name: str
    header: dict
    payload: Any
    input_size: int
    needs_rdma: bool
    rdma_size: int
    origin: str


@dataclass
class ResponseWire:
    cookie: int
    payload: Any
    output_size: int
    #: Metadata riding back with the response (Margo's Lamport clock etc.).
    header: dict = field(default_factory=dict)


class HGHandle:
    """Per-RPC state on either side of the wire.

    HANDLE-bound PVAR values live here and are lost when the handle is
    destroyed -- per the paper, tools must sample them while the RPC is
    still in scope.
    """

    __slots__ = (
        "cookie",
        "rpc_name",
        "origin_addr",
        "target_addr",
        "is_origin",
        "header",
        "input",
        "input_size",
        "output",
        "output_size",
        "_pvars",
        "_t12",
        "marks",
    )

    def __init__(
        self,
        cookie: int,
        rpc_name: str,
        origin_addr: str,
        target_addr: str,
        is_origin: bool,
    ):
        self.cookie = cookie
        self.rpc_name = rpc_name
        self.origin_addr = origin_addr
        self.target_addr = target_addr
        self.is_origin = is_origin
        self.header: dict = {}
        self.input: Any = None
        self.input_size = 0
        self.output: Any = None
        self.output_size = 0
        self._pvars: dict[str, Any] = {}
        self._t12: Optional[float] = None
        #: Free-form timestamps recorded by Margo/SYMBIOSYS (t1, t4, ...).
        self.marks: dict[str, float] = {}

    def pvar_set(self, name: str, value: Any) -> None:
        self._pvars[name] = value

    def pvar_get(self, name: str) -> Any:
        try:
            return self._pvars[name]
        except KeyError:
            raise PvarError(
                f"PVAR {name!r} has no recorded value on handle "
                f"{self.cookie} ({self.rpc_name})"
            ) from None

    def pvar_get_or(self, name: str, default: Any = 0.0) -> Any:
        return self._pvars.get(name, default)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        side = "origin" if self.is_origin else "target"
        return f"HGHandle({self.rpc_name!r}, cookie={self.cookie}, {side})"


class HGCore:
    """One Mercury instance (one per simulated process)."""

    def __init__(
        self,
        sim: Simulator,
        fabric: Fabric,
        endpoint: Endpoint,
        abt: AbtRuntime,
        *,
        serialization: Optional[SerializationModel] = None,
        config: Optional[HGConfig] = None,
        pvars_enabled: bool = False,
    ):
        self.sim = sim
        self.fabric = fabric
        self.endpoint = endpoint
        self.abt = abt
        self.serialization = serialization or SerializationModel()
        self.config = config or HGConfig()
        #: "Mercury PVAR profiling" switch (Stage 2 vs Full Support in the
        #: overhead study).
        self.pvars_enabled = pvars_enabled

        #: Live OFI read cap; starts at the configured value and may be
        #: raised at runtime (the dynamic-reconfiguration extension).
        self.ofi_max_events = self.config.ofi_max_events
        self._cookies = itertools.count(1)
        self._rpcs: dict[str, Optional[Callable[[HGHandle], None]]] = {}
        self._posted: dict[int, tuple[HGHandle, Callable]] = {}
        self._cancelled: set[int] = set()
        self._completion_queue: deque = deque()
        #: Progress observers (duck-typed; the online monitor and the
        #: invariant checker): each is called ``observer(now,
        #: n_events_read)`` after every progress iteration, including
        #: empty ones, in subscription order.
        self._progress_observers: list = []
        self.pvars = PvarRegistry()
        self._define_pvars()

    def add_progress_observer(self, observer) -> None:
        """Subscribe an additional progress observer."""
        if observer in self._progress_observers:
            raise ValueError("progress observer already subscribed")
        self._progress_observers.append(observer)

    def remove_progress_observer(self, observer) -> None:
        self._progress_observers.remove(observer)

    @property
    def addr(self) -> str:
        return self.endpoint.addr

    # -- PVAR definitions (Table II plus extras covering every class) -------------

    def _define_pvars(self) -> None:
        P, B = PvarClass, PvarBinding
        defs = [
            PvarDef(
                "num_posted_handles",
                P.LEVEL,
                B.NO_OBJECT,
                "Number of currently posted RPC handles",
                getter=lambda: len(self._posted),
            ),
            PvarDef(
                "completion_queue_size",
                P.STATE,
                B.NO_OBJECT,
                "Number of events in Mercury's completion queue",
                getter=lambda: len(self._completion_queue),
            ),
            PvarDef(
                "num_ofi_events_read",
                P.LEVEL,
                B.NO_OBJECT,
                "Number of OFI completion events last read",
            ),
            PvarDef(
                "num_rpcs_invoked",
                P.COUNTER,
                B.NO_OBJECT,
                "Number of RPCs invoked by instance",
            ),
            PvarDef(
                "internal_rdma_transfer_time",
                P.TIMER,
                B.HANDLE,
                "Time taken to transfer additional RPC metadata through RDMA",
            ),
            PvarDef(
                "input_serialization_time",
                P.TIMER,
                B.HANDLE,
                "Time taken to serialize input on origin",
            ),
            PvarDef(
                "input_deserialization_time",
                P.TIMER,
                B.HANDLE,
                "Time taken to de-serialize input on target",
            ),
            PvarDef(
                "output_serialization_time",
                P.TIMER,
                B.HANDLE,
                "Time taken to serialize output on target",
            ),
            PvarDef(
                "origin_completion_callback_time",
                P.TIMER,
                B.HANDLE,
                "Delay between arrival of RPC response and invocation of "
                "completion callback",
            ),
            PvarDef(
                "bulk_transfer_time",
                P.TIMER,
                B.HANDLE,
                "Time taken by a bulk (RDMA) data transfer for this RPC",
            ),
            PvarDef(
                "eager_buffer_size",
                P.SIZE,
                B.NO_OBJECT,
                "Size of the eager metadata buffer",
                getter=lambda: self.config.eager_size,
            ),
            PvarDef(
                "ofi_cq_high_watermark",
                P.HIGHWATERMARK,
                B.NO_OBJECT,
                "Deepest observed OFI completion-queue backlog",
                getter=lambda: self.endpoint.cq_high_watermark,
            ),
            PvarDef(
                "max_ofi_events_read",
                P.HIGHWATERMARK,
                B.NO_OBJECT,
                "Most OFI events read in one progress iteration",
            ),
            PvarDef(
                "min_ofi_events_read",
                P.LOWWATERMARK,
                B.NO_OBJECT,
                "Fewest OFI events read in one non-empty progress iteration",
            ),
            PvarDef(
                "eager_overflow_count",
                P.COUNTER,
                B.NO_OBJECT,
                "RPCs whose metadata overflowed the eager buffer",
            ),
            # Resilience gauges: degraded-mode behaviour under faults.
            # Updated by the Margo retry/timeout layer and the response
            # path unconditionally (not gated on pvars_enabled) -- they
            # cost one integer add and resilience reports need them even
            # in Baseline runs.
            PvarDef(
                "num_forward_timeouts",
                P.COUNTER,
                B.NO_OBJECT,
                "Forwards that hit their timeout and were cancelled",
            ),
            PvarDef(
                "num_forward_retries",
                P.COUNTER,
                B.NO_OBJECT,
                "Forwards re-issued by a retry policy after a failure",
            ),
            PvarDef(
                "num_failed_over_forwards",
                P.COUNTER,
                B.NO_OBJECT,
                "Forward attempts redirected to a failover target",
            ),
            PvarDef(
                "num_late_responses_dropped",
                P.COUNTER,
                B.NO_OBJECT,
                "Responses dropped on arrival: handle cancelled, already "
                "completed, or duplicated on the wire",
            ),
        ]
        for d in defs:
            self.pvars.define(d)

    def pvar_session_init(self) -> PvarSession:
        """Entry point of the external-tool interface (Section IV-B-2)."""
        return PvarSession(self.pvars)

    def resilience_counters(self) -> dict[str, int]:
        """Current values of the degraded-mode gauges (always live)."""
        return {name: self.pvars.raw_value(name) for name in RESILIENCE_PVARS}

    # -- registration -----------------------------------------------------------

    def register(self, rpc_name: str, rpc_cb: Optional[Callable] = None) -> str:
        """Register an RPC by name.

        ``rpc_cb(handle)`` is the request-arrival callback (Margo's ULT
        spawner); it runs at t4 in the progress ULT context.  Clients may
        register with no callback purely to create handles.
        """
        if rpc_cb is not None:
            existing = self._rpcs.get(rpc_name)
            if existing is not None:
                raise ValueError(f"RPC {rpc_name!r} already has a handler")
            self._rpcs[rpc_name] = rpc_cb
        else:
            self._rpcs.setdefault(rpc_name, None)
        return rpc_name

    @property
    def registered_rpcs(self) -> list[str]:
        return list(self._rpcs)

    # -- origin side -------------------------------------------------------------

    def create(self, target_addr: str, rpc_name: str) -> HGHandle:
        if rpc_name not in self._rpcs:
            raise ValueError(f"RPC {rpc_name!r} is not registered")
        return HGHandle(
            cookie=next(self._cookies),
            rpc_name=rpc_name,
            origin_addr=self.addr,
            target_addr=target_addr,
            is_origin=True,
        )

    def forward(self, handle: HGHandle, payload: Any, complete_cb: Callable):
        """Post the RPC (generator; runs in the caller's ULT).

        ``complete_cb(handle)`` fires from the origin trigger loop at t14.
        """
        if not handle.is_origin:
            raise ValueError("forward requires an origin handle")
        input_size = estimate_size(payload)
        handle.input = payload
        handle.input_size = input_size

        ser_t = self.serialization.ser_time(input_size)
        if ser_t > 0:
            yield Compute(ser_t)  # t2 -> t3
        if self.pvars_enabled:
            handle.pvar_set("input_serialization_time", ser_t)
            self.pvars.add("num_rpcs_invoked")
        if self.config.post_cost > 0:
            yield Compute(self.config.post_cost)

        self._posted[handle.cookie] = (handle, complete_cb)

        eager_part = min(input_size, self.config.eager_size)
        needs_rdma = input_size > self.config.eager_size
        rdma_size = input_size - eager_part
        if needs_rdma and self.pvars_enabled:
            self.pvars.add("eager_overflow_count")

        wire = RequestWire(
            cookie=handle.cookie,
            rpc_name=handle.rpc_name,
            header=dict(handle.header),
            payload=payload,
            input_size=input_size,
            needs_rdma=needs_rdma,
            rdma_size=rdma_size,
            origin=self.addr,
        )
        self.fabric.send(
            Message(
                src=self.addr,
                dst=handle.target_addr,
                size_bytes=self.config.rpc_header_size + eager_part,
                payload=wire,
                kind="rpc_request",
            )
        )

    # -- target side --------------------------------------------------------------

    def get_input(self, handle: HGHandle):
        """Deserialize the input (generator; handler ULT, t6 -> t7)."""
        deser_t = self.serialization.deser_time(handle.input_size)
        if deser_t > 0:
            yield Compute(deser_t)
        if self.pvars_enabled:
            handle.pvar_set("input_deserialization_time", deser_t)
        return handle.input

    def respond(self, handle: HGHandle, payload: Any, complete_cb: Callable):
        """Send the response (generator; handler ULT, t8 onward).

        ``complete_cb(handle)`` fires from the *target* trigger loop at
        t13, once the response has been injected.
        """
        if handle.is_origin:
            raise ValueError("respond requires a target handle")
        output_size = estimate_size(payload)
        handle.output = payload
        handle.output_size = output_size

        ser_t = self.serialization.ser_time(output_size)
        if ser_t > 0:
            yield Compute(ser_t)  # t9 -> t10
        if self.pvars_enabled:
            handle.pvar_set("output_serialization_time", ser_t)
        if self.config.post_cost > 0:
            yield Compute(self.config.post_cost)

        wire = ResponseWire(
            cookie=handle.cookie,
            payload=payload,
            output_size=output_size,
            header=dict(handle.header),
        )

        def _sent() -> None:
            self.endpoint.push(
                CQEntry(
                    kind=CQKind.SEND_COMPLETE,
                    payload=lambda: complete_cb(handle),
                    enqueued_at=self.sim.now,
                )
            )

        self.fabric.send(
            Message(
                src=self.addr,
                dst=handle.origin_addr,
                size_bytes=self.config.rpc_header_size + output_size,
                payload=wire,
                kind="rpc_response",
            ),
            on_local_complete=_sent,
        )

    def bulk_pull(self, handle: HGHandle, size_bytes: int):
        """Pull ``size_bytes`` of bulk data from the RPC's origin
        (generator; handler ULT).  Models Mercury's bulk interface over
        RDMA; returns the transfer duration."""
        if size_bytes < 0:
            raise ValueError("bulk size must be non-negative")
        ev = self.abt.eventual(f"bulk:{handle.cookie}")
        start = self.sim.now
        self.fabric.rdma_get(
            initiator=self.addr,
            remote=handle.origin_addr,
            size_bytes=size_bytes,
            payload=("bulk", ev),
        )
        yield from ev.wait()
        elapsed = self.sim.now - start
        if self.pvars_enabled:
            handle.pvar_set("bulk_transfer_time", elapsed)
        return elapsed

    # -- progress engine ------------------------------------------------------------

    @property
    def has_pending_completions(self) -> bool:
        return bool(self._completion_queue)

    def progress(self, timeout: float = 0.0):
        """One progress iteration (generator; progress ULT).

        Reads up to ``ofi_max_events`` entries from the OFI completion
        queue and converts them into Mercury completion callbacks.  If the
        CQ is empty and ``timeout`` is positive, blocks (as a ULT) until
        an entry arrives or the timeout elapses.  Returns the number of
        OFI events read.
        """
        ep = self.endpoint
        if ep.cq_depth == 0:
            if timeout <= 0:
                self._note_progress(0)
                return 0
            ev = self.abt.eventual("hg.progress")
            disarm = ep.arm(ev.signal)
            ok, _ = yield from ev.wait(timeout=timeout)
            if not ok:
                disarm()
                self._note_progress(0)
                return 0
        entries = ep.cq_read(self.ofi_max_events)
        n = len(entries)
        if n and self.pvars_enabled:
            pv = self.pvars
            pv.set("num_ofi_events_read", n)
            pv.watermark("max_ofi_events_read", n)
            pv.watermark("min_ofi_events_read", n)
        for entry in entries:
            self._dispatch(entry)
        self._note_progress(n)
        return n

    def _note_progress(self, n: int) -> None:
        for observer in self._progress_observers:
            observer(self.sim.now, n)

    def set_ofi_max_events(self, n: int) -> None:
        """Adjust the per-iteration OFI read cap at runtime."""
        if n < 1:
            raise ValueError("ofi_max_events must be at least 1")
        self.ofi_max_events = n

    def trigger(self):
        """Run queued completion callbacks (generator; progress ULT).
        Returns the number executed."""
        n = 0
        while self._completion_queue:
            cb = self._completion_queue.popleft()
            if self.config.callback_cost > 0:
                yield Compute(self.config.callback_cost)
            cb()
            n += 1
        return n

    # -- internal dispatch -------------------------------------------------------

    def _dispatch(self, entry: CQEntry) -> None:
        if entry.kind is CQKind.RECV:
            wire = entry.payload.payload
            if isinstance(wire, RequestWire):
                self._on_request(wire, entry.enqueued_at)
            elif isinstance(wire, ResponseWire):
                self._on_response(wire, entry.enqueued_at)
            else:
                raise TypeError(f"unexpected wire payload {wire!r}")
        elif entry.kind is CQKind.SEND_COMPLETE:
            self._completion_queue.append(entry.payload)
        elif entry.kind is CQKind.RDMA_COMPLETE:
            tag = entry.payload
            if isinstance(tag, tuple) and tag and tag[0] == "bulk":
                _, ev = tag
                self._completion_queue.append(lambda: ev.signal())
            elif isinstance(tag, tuple) and tag and tag[0] == "int_rdma":
                _, handle, started = tag
                if self.pvars_enabled:
                    handle.pvar_set(
                        "internal_rdma_transfer_time", self.sim.now - started
                    )
                self._completion_queue.append(
                    lambda: self._deliver_request(handle)
                )
            else:
                raise TypeError(f"unexpected RDMA completion tag {tag!r}")

    def _on_request(
        self, wire: RequestWire, arrived_at: Optional[float] = None
    ) -> None:
        handle = HGHandle(
            cookie=wire.cookie,
            rpc_name=wire.rpc_name,
            origin_addr=wire.origin,
            target_addr=self.addr,
            is_origin=False,
        )
        handle.header = dict(wire.header)
        handle.input = wire.payload
        handle.input_size = wire.input_size
        handle.marks["t3"] = self.sim.now
        # When the request hit the target's endpoint CQ: the window
        # [t_arrival, t3] is OFI backlog / progress starvation, not wire
        # transit, and the critical-path engine splits on it.
        handle.marks["t_arrival"] = (
            self.sim.now if arrived_at is None else arrived_at
        )
        if wire.needs_rdma:
            # Pull the overflowed metadata before handing the request up
            # (t3 -> t4); progress keeps running meanwhile.
            self.fabric.rdma_get(
                initiator=self.addr,
                remote=wire.origin,
                size_bytes=wire.rdma_size,
                payload=("int_rdma", handle, self.sim.now),
            )
        else:
            if self.pvars_enabled:
                handle.pvar_set("internal_rdma_transfer_time", 0.0)
            self._completion_queue.append(lambda: self._deliver_request(handle))

    def _deliver_request(self, handle: HGHandle) -> None:
        cb = self._rpcs.get(handle.rpc_name)
        if cb is None:
            raise RuntimeError(
                f"request for RPC {handle.rpc_name!r} with no handler at "
                f"{self.addr!r}"
            )
        handle.marks["t4"] = self.sim.now
        cb(handle)

    def cancel(self, handle: HGHandle) -> bool:
        """Withdraw a posted RPC: its response (if any) will be dropped.
        Returns True if the handle was still pending."""
        if self._posted.pop(handle.cookie, None) is not None:
            self._cancelled.add(handle.cookie)
            return True
        return False

    def _on_response(
        self, wire: ResponseWire, arrived_at: Optional[float] = None
    ) -> None:
        if wire.cookie in self._cancelled:
            self._cancelled.discard(wire.cookie)
            self.pvars.add("num_late_responses_dropped")
            return
        try:
            handle, cb = self._posted.pop(wire.cookie)
        except KeyError:
            # Not (or no longer) posted: a response that raced a timeout
            # cancellation, or a wire-level duplicate of one already
            # consumed.  Real Mercury ignores stale completions; we count
            # them as a resilience gauge.
            self.pvars.add("num_late_responses_dropped")
            return
        handle.output = wire.payload
        handle.output_size = wire.output_size
        handle.header.update(wire.header)
        handle._t12 = self.sim.now  # completion moved to HG queue
        # t11: response reached the origin endpoint CQ; t12: this
        # progress iteration moved it to the HG completion queue.
        handle.marks["t11"] = (
            self.sim.now if arrived_at is None else arrived_at
        )
        handle.marks["t12"] = self.sim.now

        def _complete() -> None:
            if self.pvars_enabled:
                handle.pvar_set(
                    "origin_completion_callback_time",
                    self.sim.now - handle._t12,
                )
            cb(handle)

        self._completion_queue.append(_complete)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HGCore({self.addr!r}, posted={len(self._posted)}, "
            f"cq={len(self._completion_queue)})"
        )
