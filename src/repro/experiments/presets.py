"""Cost-model presets.

``THETA_KNL`` approximates the evaluation platform: Intel Knights
Landing cores are slow on serial code (roughly 3-4x a contemporary Xeon
core), so per-operation CPU costs are scaled up accordingly, while the
Aries fabric remains fast.  The absolute values are order-of-magnitude
estimates -- the reproduction targets relative shapes, not absolute
times -- but using one consistent preset across every HEPnOS experiment
keeps the configurations comparable the way Table IV intends.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..mercury import HGConfig, SerializationModel
from ..net import FabricConfig
from ..services.sdskv import BackendCosts

__all__ = ["Preset", "THETA_KNL", "FAST_TEST"]


@dataclass(frozen=True)
class Preset:
    name: str
    serialization: SerializationModel
    fabric: FabricConfig
    ctx_switch_cost: float
    map_costs: BackendCosts
    #: Data-loader client CPU model (file prep per window/event,
    #: per-response bookkeeping).
    loader_prep_fixed: float = 0.0
    loader_prep_per_event: float = 0.0
    loader_response_cost: float = 0.0

    def hg_config(self, ofi_max_events: int = 16) -> HGConfig:
        if self.name == "theta-knl":
            return HGConfig(
                ofi_max_events=ofi_max_events,
                post_cost=1.0e-6,
                callback_cost=0.4e-6,
            )
        return HGConfig(ofi_max_events=ofi_max_events)


THETA_KNL = Preset(
    name="theta-knl",
    serialization=SerializationModel(
        ser_fixed=2.0e-6,
        ser_per_byte=0.8e-9,
        deser_fixed=2.5e-6,
        deser_per_byte=1.0e-9,
    ),
    fabric=FabricConfig(
        latency=1.8e-6,
        bandwidth=8e9,
        intra_node_latency=0.5e-6,
        intra_node_bandwidth=20e9,
    ),
    ctx_switch_cost=0.3e-6,
    map_costs=BackendCosts(
        put_fixed=0.3e-6,
        put_per_byte=0.05e-9,
        get_fixed=0.5e-6,
        get_per_byte=0.06e-9,
        scan_per_item=0.06e-6,
    ),
    loader_prep_fixed=2.0e-6,
    loader_prep_per_event=0.1e-6,
    loader_response_cost=2.5e-6,
)

#: Cheap defaults for unit-style experiment tests.
FAST_TEST = Preset(
    name="fast-test",
    serialization=SerializationModel(),
    fabric=FabricConfig(),
    ctx_switch_cost=50e-9,
    map_costs=BackendCosts(
        put_fixed=0.5e-6,
        put_per_byte=0.10e-9,
        get_fixed=0.4e-6,
        get_per_byte=0.05e-9,
        scan_per_item=0.05e-6,
    ),
)
