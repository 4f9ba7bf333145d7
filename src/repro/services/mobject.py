"""Mobject: a distributed object store exposing a RADOS-like API.

Each Mobject *provider node* (one server process) hosts three providers:
the Mobject sequencer (the client-facing provider), a BAKE provider for
object data, and an SDSKV provider for object metadata (Figure 4).  The
sequencer translates each RADOS-style op into BAKE and SDSKV operations
issued as loopback RPCs -- control always returns to the Mobject
provider between steps, so each step is a *discrete* RPC visible to
SYMBIOSYS (the 12-call structure of Figure 5).

``mobject_write_op`` issues exactly 12 downstream calls; the expensive
step of ``mobject_read_op`` is ``sdskv_list_keyvals_rpc``, whose scan
cost grows with the stored extent count -- which is why it dominates the
ior read profile in Figure 6.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..argobots import Compute
from ..margo import MargoInstance
from ..mercury import BulkRef, HGHandle
from .bake import BakeClient, BakeProvider
from .sdskv import BackendCosts, SdskvClient, SdskvProvider

__all__ = ["MobjectProviderNode", "MobjectClient"]

RPC_WRITE_OP = "mobject_write_op"
RPC_READ_OP = "mobject_read_op"

PID_SEQUENCER = 1
PID_BAKE = 2
PID_SDSKV = 3

#: Per-op bookkeeping cost inside the sequencer itself.
_SEQUENCER_STEP_COST = 0.3e-6


class MobjectProviderNode:
    """One Mobject server process: sequencer + BAKE + SDSKV providers,
    registered on ``mi``."""

    def __init__(
        self, mi: MargoInstance, *, sdskv_costs: Optional[BackendCosts] = None
    ):
        self.mi = mi
        self.bake = BakeProvider(mi, PID_BAKE)
        self.sdskv = SdskvProvider(
            mi, PID_SDSKV, backend="map", n_databases=1, costs=sdskv_costs
        )
        # Loopback clients used by the sequencer for its discrete steps.
        self._bake_cli = BakeClient(self.mi)
        self._skv_cli = SdskvClient(self.mi)
        self.mi.register(RPC_WRITE_OP, self._h_write_op, PID_SEQUENCER)
        self.mi.register(RPC_READ_OP, self._h_read_op, PID_SEQUENCER)

    @property
    def addr(self) -> str:
        return self.mi.addr

    # -- sequencer handlers ------------------------------------------------------

    def _h_write_op(self, mi: MargoInstance, handle: HGHandle) -> Generator:
        """RADOS-subset object write: 12 discrete SDSKV/BAKE calls."""
        inp = yield from mi.get_input(handle)
        oid: str = inp["oid"]
        offset: int = inp.get("offset", 0)
        bulk: BulkRef = inp["bulk"]
        # Pull the object payload from the real client first.
        yield from mi.bulk_transfer(handle, bulk.nbytes)
        data: bytes = bulk.data
        me, skv, bake = self.addr, self._skv_cli, self._bake_cli

        yield Compute(_SEQUENCER_STEP_COST)
        # 1. look up the object's sequence entry
        seq = yield from skv.get(me, PID_SDSKV, 0, f"seq:{oid}")
        # 2. bump / install the sequence number
        next_seq = (seq or 0) + 1
        yield from skv.put(me, PID_SDSKV, 0, f"seq:{oid}", next_seq)
        # 3. read the current object descriptor (may be absent)
        yield from skv.get(me, PID_SDSKV, 0, f"obj:{oid}")
        # 4-6. create a BAKE region, write the data, persist it
        rid = yield from bake.create(me, PID_BAKE, len(data))
        yield from bake.write(me, PID_BAKE, rid, 0, data)
        yield from bake.persist(me, PID_BAKE, rid)
        # 7. map the extent to its BAKE region
        yield from skv.put(
            me, PID_SDSKV, 0, f"extent:{oid}:{offset:012d}", {"rid": rid, "len": len(data)}
        )
        # 8. update the object descriptor
        yield from skv.put(
            me, PID_SDSKV, 0, f"obj:{oid}", {"seq": next_seq, "rid": rid}
        )
        # 9. update the object size record
        yield from skv.put(
            me, PID_SDSKV, 0, f"size:{oid}", offset + len(data)
        )
        # 10. store the omap timestamp entry
        yield from skv.put(
            me, PID_SDSKV, 0, f"omap:{oid}:mtime", mi.sim.now
        )
        # 11. verify the descriptor landed
        yield from skv.exists(me, PID_SDSKV, 0, f"obj:{oid}")
        # 12. confirm the persisted region size
        yield from bake.get_size(me, PID_BAKE, rid)

        yield Compute(_SEQUENCER_STEP_COST)
        yield from mi.respond(handle, {"ret": 0, "seq": next_seq})

    def _h_read_op(self, mi: MargoInstance, handle: HGHandle) -> Generator:
        """RADOS-subset object read: extent listing dominates."""
        inp = yield from mi.get_input(handle)
        oid: str = inp["oid"]
        me, skv, bake = self.addr, self._skv_cli, self._bake_cli

        yield Compute(_SEQUENCER_STEP_COST)
        # 1. list the object's extents (scan -- the dominant step)
        extents = yield from skv.list_keyvals(
            me, PID_SDSKV, 0, prefix=f"extent:{oid}:"
        )
        # 2. fetch the object descriptor
        desc = yield from skv.get(me, PID_SDSKV, 0, f"obj:{oid}")
        if desc is None or not extents:
            yield from mi.respond(handle, {"ret": -1, "bulk": None})
            return
        # 3. read the newest extent's data from BAKE
        _, extent = extents[-1]
        data = yield from bake.read(me, PID_BAKE, extent["rid"], 0)
        yield from mi.respond(
            handle, {"ret": 0, "bulk": BulkRef(data, 0), "len": extent["len"]}
        )


class MobjectClient:
    """Client-side RADOS-subset API."""

    def __init__(self, mi: MargoInstance):
        self.mi = mi
        mi.register(RPC_WRITE_OP)
        mi.register(RPC_READ_OP)

    def write_op(
        self, target: str, oid: str, data: bytes, offset: int = 0
    ) -> Generator:
        out = yield from self.mi.forward(
            target,
            RPC_WRITE_OP,
            {"oid": oid, "offset": offset, "bulk": BulkRef(data, len(data))},
            PID_SEQUENCER,
        )
        return out["ret"]

    def read_op(self, target: str, oid: str) -> Generator:
        out = yield from self.mi.forward(
            target, RPC_READ_OP, {"oid": oid}, PID_SEQUENCER
        )
        if out["ret"] != 0:
            return None
        return out["bulk"].data
