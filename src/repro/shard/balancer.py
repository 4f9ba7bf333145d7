"""Monitor-driven shard telemetry and hot-spot rebalancing.

:class:`ShardHotspotDetector` is appended to a monitor's detector list
(``cluster.monitor.detectors``).  On every sample tick it

* records per-shard operation counts into the monitor's time-series
  store (``shard_ops`` with ``process``/``shard`` labels — the feed for
  the ``shards`` analysis op),
* watches for a *hot* shard: one shard absorbing more than
  ``hot_fraction`` of a server's window traffic while that server holds
  more than one shard, and
* when it fires, asks the :class:`~repro.shard.migration.ShardManager`
  to move the hot shard to the coldest live server.  The manager defers
  actuation onto the simulator queue, so the sample tick itself stays a
  pure observer.

Findings are edge-triggered: each shard is rebalanced at most once per
``cooldown`` window.
"""

from __future__ import annotations

from typing import Optional

from ..symbiosys.monitor import AnomalyDetector, Finding, MonitorConfig

__all__ = ["ShardHotspotDetector"]


class ShardHotspotDetector(AnomalyDetector):
    """Per-shard telemetry recorder + hot-spot-triggered rebalancer."""

    name = "shard_hotspot"

    def __init__(
        self,
        config: MonitorConfig,
        *,
        manager,
        providers: dict,
        hot_fraction: float = 0.5,
        min_window_ops: int = 16,
        cooldown: float = 1e-3,
    ):
        self.config = config
        self.manager = manager
        self.providers = providers
        self.hot_fraction = hot_fraction
        self.min_window_ops = min_window_ops
        self.cooldown = cooldown
        self._last_ops: dict[tuple[str, int], int] = {}
        self._last_moved: dict[int, float] = {}
        #: Rebalances this detector has requested (accepted by the
        #: manager), as (time, shard, src, dst).
        self.rebalances: list[tuple[float, int, str, str]] = []

    def on_sample(self, t: float, monitor) -> list[Finding]:
        findings: list[Finding] = []
        window: dict[str, dict[int, int]] = {}
        for addr in sorted(self.providers):
            provider = self.providers[addr]
            deltas: dict[int, int] = {}
            for shard, total in sorted(provider.ops_by_shard.items()):
                key = (addr, shard)
                deltas[shard] = total - self._last_ops.get(key, 0)
                self._last_ops[key] = total
                monitor.store.series(
                    "shard_ops",
                    {"process": addr, "shard": f"{shard:04d}"},
                ).append(t, total)
            window[addr] = deltas
        hot = self._find_hot_shard(t, window)
        if hot is not None:
            shard, src, ops, total = hot
            dst = self._coldest_server(window, exclude=src)
            if dst is not None and self.manager.request_rebalance(shard, dst):
                self._last_moved[shard] = t
                self.rebalances.append((t, shard, src, dst))
                findings.append(
                    Finding(
                        t,
                        self.name,
                        src,
                        f"hot shard {shard}: {ops}/{total} window ops; "
                        f"rebalancing to {dst}",
                        value=ops,
                    )
                )
        return findings

    def _find_hot_shard(
        self, t: float, window: dict[str, dict[int, int]]
    ) -> Optional[tuple[int, str, int, int]]:
        """Hottest (shard, server) over the window, if it qualifies."""
        best: Optional[tuple[int, str, int, int]] = None
        for addr in sorted(window):
            deltas = window[addr]
            total = sum(deltas.values())
            if total < self.min_window_ops or len(self.providers[addr].shards) < 2:
                continue
            for shard in sorted(deltas):
                ops = deltas[shard]
                if ops < self.hot_fraction * total:
                    continue
                if t - self._last_moved.get(shard, -1e9) < self.cooldown:
                    continue
                if best is None or ops > best[2]:
                    best = (shard, addr, ops, total)
        return best

    def _coldest_server(
        self, window: dict[str, dict[int, int]], exclude: str
    ) -> Optional[str]:
        candidates = []
        for addr in sorted(self.providers):
            if addr == exclude or addr not in self.manager.group:
                continue
            if self.manager._crashed(addr):
                continue
            candidates.append((sum(window.get(addr, {}).values()), addr))
        if not candidates:
            return None
        return min(candidates)[1]
