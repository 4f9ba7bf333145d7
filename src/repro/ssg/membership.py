"""Fabric-delayed view propagation and failure-driven membership.

``ViewPropagator`` models SSG's gossip dissemination: an authoritative
view change reaches each registered replica after a per-replica fabric
delay, so replicas are *eventually* consistent and can observe views
out of order (the stale-epoch guard in ``SSGGroup.apply_view`` makes
that safe).

``MembershipService`` is the SWIM-ish failure detector: a sim-clock
heartbeat scans the member processes for crashes (and revivals after a
``RestartFault``), mutates the authoritative group, and propagates the
new epoch-numbered view.  Actuation beyond membership (ring rebuilds,
shard migration) subscribes to those views through
:meth:`MembershipService.on_view` — see ``repro.shard``.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional

from ..sim import PeriodicSampler
from .group import SSGGroup, SSGView

__all__ = ["ViewPropagator", "MembershipService"]

#: Seconds of simulated time between two heartbeat scans.
HEARTBEAT_INTERVAL = 100e-6


class ViewPropagator:
    """Deliver views to replica groups after simulated fabric delays.

    Each registered replica receives every propagated view after
    ``base_delay + stagger * index`` seconds (index = registration
    order), modelling the staggered hops of a dissemination tree.
    Per-call ``delay`` overrides support tests that force reordering.
    """

    def __init__(self, sim, base_delay: float = 5e-6, stagger: float = 1e-6):
        self.sim = sim
        self.base_delay = base_delay
        self.stagger = stagger
        self._replicas: list[SSGGroup] = []
        self.delivered = 0
        self.stale_drops = 0

    def register(self, replica: SSGGroup) -> None:
        self._replicas.append(replica)

    def propagate(self, view: SSGView, delay: Optional[float] = None) -> None:
        for i, replica in enumerate(self._replicas):
            d = delay if delay is not None else self.base_delay + self.stagger * i
            self.sim.call_at(self.sim.now + d, self._deliver, replica, view)

    def _deliver(self, replica: SSGGroup, view: SSGView) -> None:
        if replica.apply_view(view):
            self.delivered += 1
        else:
            self.stale_drops += 1


class MembershipService:
    """Heartbeat failure detection driving an authoritative SSG group.

    Scans ``processes`` (addr -> MargoInstance) every
    :data:`HEARTBEAT_INTERVAL` sim seconds; a crashed member leaves the
    group, a previously evicted address that is alive again rejoins.
    Every membership change bumps the group epoch and propagates the new
    view.  The scan loop self-reschedules, so ``stop()`` must run before
    the cluster drains its event queue (``Cluster.add_shutdown_hook``
    handles this).
    """

    def __init__(
        self,
        sim,
        group: SSGGroup,
        processes: Mapping[str, object],
        propagator: Optional[ViewPropagator] = None,
    ):
        self.sim = sim
        self.group = group
        self.processes = processes
        self.propagator = propagator
        self._heartbeat = PeriodicSampler(
            sim, HEARTBEAT_INTERVAL, lambda now: self.scan()
        )
        self._evicted: set[str] = set()
        self._view_callbacks: list[Callable[[SSGView], None]] = []
        self.events: list[tuple[float, str, str, int]] = []

    def on_view(self, callback: Callable[[SSGView], None]) -> None:
        """``callback(view)`` after each locally detected change."""
        self._view_callbacks.append(callback)

    def start(self) -> None:
        self._heartbeat.start()

    def stop(self) -> None:
        self._heartbeat.stop()

    def scan(self) -> bool:
        """One heartbeat round; returns True if membership changed."""
        changed = False
        # The view's member tuple is immutable (``leave`` replaces it),
        # so iterating it while members leave needs no copy.
        for addr in self.group.view().members:
            mi = self.processes.get(addr)
            if mi is not None and getattr(mi, "crashed", False):
                self.group.leave(addr)
                self._evicted.add(addr)
                self.events.append((self.sim.now, "death", addr, self.group.epoch))
                changed = True
        for addr in sorted(self._evicted):
            mi = self.processes.get(addr)
            if mi is not None and not getattr(mi, "crashed", False):
                self.group.join(addr)
                self._evicted.discard(addr)
                self.events.append((self.sim.now, "revive", addr, self.group.epoch))
                changed = True
        if changed:
            view = self.group.view()
            if self.propagator is not None:
                self.propagator.propagate(view)
            for cb in self._view_callbacks:
                cb(view)
        return changed
