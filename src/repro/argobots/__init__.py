"""Simulated Argobots: ULTs, pools, execution streams, synchronization.

See DESIGN.md §2 item 2.  The public surface mirrors the parts of
Argobots that Mochi/Margo uses.
"""

from .pool import Pool
from .runtime import AbtRuntime
from .sync import AbtMutex, Eventual
from .ult import ULT, AbtEffect, Compute, UltState, WaitEventual, YieldNow
from .xstream import ExecutionStream

__all__ = [
    "AbtEffect",
    "AbtMutex",
    "AbtRuntime",
    "Compute",
    "Eventual",
    "ExecutionStream",
    "Pool",
    "ULT",
    "UltState",
    "WaitEventual",
    "YieldNow",
]
