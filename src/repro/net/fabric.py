"""The simulated RDMA fabric.

A :class:`Fabric` connects named :class:`~repro.net.endpoint.Endpoint`
objects.  Transfer time follows a latency + size/bandwidth model; transfers
between endpoints on the same node use the (faster) intra-node
parameters, which matters for the colocated ior+Mobject case study.
Wire times are deterministic: message loss, duplication and latency
spikes come only from the fault hook (a
:class:`~repro.faults.FaultInjector` executing a ``FaultPlan``).

The fabric also implements one-sided RDMA reads: Mercury's bulk interface
and the internal-RDMA metadata overflow path (t3-t4 in Figure 2) are
RDMA gets issued by the target against origin memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..config import Replaceable
from ..sim import Simulator
from .endpoint import Endpoint
from .message import CQEntry, CQKind, Message

__all__ = ["Fabric", "FabricConfig", "WireFault"]


@dataclass
class WireFault:
    """A fault verdict for one transfer, produced by a fault hook
    (:class:`repro.faults.FaultInjector`) and consumed by the fabric."""

    #: Lose the message entirely (local injection still completes).
    drop: bool = False
    #: Deliver this many *extra* copies (at-least-once hazard).
    copies: int = 0
    #: Latency spike added to the wire time, seconds.
    extra_delay: float = 0.0

    def __post_init__(self) -> None:
        # A spike only ever slows a transfer down: a negative one would
        # deliver a message sooner than the configured latency allows, so
        # a bad fault plan is rejected here rather than silently skewing
        # the wire-time model.
        if self.extra_delay < 0:
            raise ValueError(
                f"WireFault.extra_delay must be non-negative, got "
                f"{self.extra_delay!r} (a negative spike would put a wire "
                f"time below the configured latency)"
            )
        if self.copies < 0:
            raise ValueError("WireFault.copies must be non-negative")


@dataclass(frozen=True, kw_only=True)
class FabricConfig(Replaceable):
    """Latency/bandwidth parameters of the interconnect.

    Defaults approximate a Cray Aries-class HPC fabric; intra-node values
    approximate shared-memory transport.
    """

    latency: float = 1.5e-6  # one-way, seconds
    bandwidth: float = 8e9  # bytes/second
    intra_node_latency: float = 0.4e-6
    intra_node_bandwidth: float = 24e9

    def __post_init__(self) -> None:
        if self.latency < 0 or self.intra_node_latency < 0:
            raise ValueError("latency must be non-negative")
        if self.bandwidth <= 0 or self.intra_node_bandwidth <= 0:
            raise ValueError("bandwidth must be positive")


class Fabric:
    """Message transport between registered endpoints."""

    def __init__(self, sim: Simulator, config: Optional[FabricConfig] = None):
        self.sim = sim
        self.config = config or FabricConfig()
        self._endpoints: dict[str, Endpoint] = {}
        #: Optional fault-injection hook (duck-typed; see
        #: :class:`repro.faults.FaultInjector`).  Consulted per message:
        #: ``on_message(msg, src_ep, dst_ep) -> Optional[WireFault]``.
        self.fault_hook = None
        #: Totals for the system-statistics summary.
        self.total_messages = 0
        self.total_bytes = 0
        self.total_dropped = 0
        self.total_duplicated = 0
        #: Byte-level conservation ledger (checked by the validation
        #: layer):  ``total_bytes + duplicated_bytes == delivered_bytes +
        #: dropped_bytes + discarded_bytes + inflight_bytes`` holds at
        #: every instant between event callbacks.
        self.delivered_bytes = 0
        self.dropped_bytes = 0
        #: Bytes delivered to a closed (crashed) endpoint and lost there.
        self.discarded_bytes = 0
        self.duplicated_bytes = 0
        #: Bytes currently on the wire (sent but not yet delivered).
        self.inflight_bytes = 0

    # -- endpoint registry --------------------------------------------------

    def register(self, endpoint: Endpoint) -> None:
        if endpoint.addr in self._endpoints:
            raise ValueError(f"duplicate endpoint address {endpoint.addr!r}")
        self._endpoints[endpoint.addr] = endpoint

    def endpoint(self, addr: str) -> Endpoint:
        try:
            return self._endpoints[addr]
        except KeyError:
            raise KeyError(f"no endpoint registered at {addr!r}") from None

    def create_endpoint(self, addr: str, node: str = "") -> Endpoint:
        ep = Endpoint(self.sim, addr, node=node)
        self.register(ep)
        return ep

    # -- timing model ---------------------------------------------------------

    def wire_time(self, src_node: str, dst_node: str, size_bytes: int) -> float:
        """One-way transfer time for ``size_bytes`` between two nodes."""
        same = bool(src_node) and src_node == dst_node
        lat = self.config.intra_node_latency if same else self.config.latency
        bw = self.config.intra_node_bandwidth if same else self.config.bandwidth
        return lat + size_bytes / bw

    # -- two-sided send ---------------------------------------------------------

    def send(
        self,
        msg: Message,
        on_local_complete: Optional[Callable[[], None]] = None,
    ) -> float:
        """Inject ``msg`` toward its destination endpoint.

        A RECV entry appears in the destination CQ after the wire time.
        ``on_local_complete`` (if given) fires when the message has been
        fully injected locally -- the hook the target response path uses
        for its completion callback (t13).  Returns the delivery time.
        """
        src_ep = self.endpoint(msg.src)
        dst_ep = self._endpoints.get(msg.dst)
        if dst_ep is None:
            self.endpoint(msg.dst)  # raises the canonical KeyError
        self.total_messages += 1
        self.total_bytes += msg.size_bytes

        if src_ep.closed:
            # A crashed process cannot inject anything: no delivery and
            # no local completion either.
            self.total_dropped += 1
            self.dropped_bytes += msg.size_bytes
            return float("inf")

        fault: Optional[WireFault] = None
        if self.fault_hook is not None:
            fault = self.fault_hook.on_message(msg, src_ep, dst_ep)

        # The local injection costs the same whether or not the wire
        # then loses the message.
        inject_time = msg.size_bytes / (
            self.config.intra_node_bandwidth
            if src_ep.node and src_ep.node == dst_ep.node
            else self.config.bandwidth
        )
        if on_local_complete is not None:
            self.sim.call_after(inject_time, on_local_complete)
        if fault is not None and fault.drop:
            # Silently lost on the wire: the local send still "completes"
            # (no ack in this transport), but nothing is delivered.
            self.total_dropped += 1
            self.dropped_bytes += msg.size_bytes
            return float("inf")

        extra_delay = fault.extra_delay if fault is not None else 0.0
        copies = 1 + (fault.copies if fault is not None else 0)
        self.total_duplicated += copies - 1
        self.duplicated_bytes += (copies - 1) * msg.size_bytes
        deliver_at = float("inf")
        for _ in range(copies):
            delay = (
                self.wire_time(src_ep.node, dst_ep.node, msg.size_bytes)
                + extra_delay
            )
            at = self.sim.now + delay
            self.inflight_bytes += msg.size_bytes
            self.sim.call_at(
                at,
                self._deliver,
                dst_ep,
                CQEntry(kind=CQKind.RECV, payload=msg, enqueued_at=at),
                msg.size_bytes,
            )
            deliver_at = min(deliver_at, at)
        return deliver_at

    def _deliver(self, dst_ep: Endpoint, entry: CQEntry, nbytes: int) -> None:
        """Land one wire transfer.

        Decrementing in-flight bytes and crediting the delivered (or
        discarded, if the endpoint died while the bytes were on the wire)
        ledger happens in the same event as the CQ push, so the byte
        conservation identity holds at every observable instant.
        """
        self.inflight_bytes -= nbytes
        if dst_ep.closed:
            self.discarded_bytes += nbytes
        else:
            self.delivered_bytes += nbytes
        dst_ep.push(entry)

    # -- one-sided RDMA ------------------------------------------------------------

    def rdma_get(
        self,
        initiator: str,
        remote: str,
        size_bytes: int,
        payload: object = None,
    ) -> float:
        """One-sided read of ``size_bytes`` from ``remote`` into ``initiator``.

        The initiator's CQ receives an RDMA_COMPLETE entry after one
        round-trip latency plus the payload transfer time.  Returns the
        completion time.
        """
        ini_ep = self.endpoint(initiator)
        rem_ep = self._endpoints.get(remote)
        if rem_ep is None:
            self.endpoint(remote)  # raises the canonical KeyError
        self.total_messages += 1
        self.total_bytes += size_bytes

        if ini_ep.closed or rem_ep.closed:
            # Reliable transport cannot reach a dead process: the
            # operation simply never completes.
            self.total_dropped += 1
            self.dropped_bytes += size_bytes
            return float("inf")

        same = bool(ini_ep.node) and ini_ep.node == rem_ep.node
        lat = (
            self.config.intra_node_latency if same else self.config.latency
        )
        bw = self.config.intra_node_bandwidth if same else self.config.bandwidth
        # Request travels one way, data comes back: 2x latency + payload.
        delay = 2 * lat + size_bytes / bw
        done_at = self.sim.now + delay
        self.inflight_bytes += size_bytes
        self.sim.call_at(
            done_at,
            self._deliver,
            ini_ep,
            CQEntry(kind=CQKind.RDMA_COMPLETE, payload=payload, enqueued_at=done_at),
            size_bytes,
        )
        return done_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Fabric(endpoints={len(self._endpoints)}, msgs={self.total_messages})"
