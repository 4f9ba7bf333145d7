"""Deterministic, seeded fault injection for the simulated Mochi stack.

Declare a campaign with :class:`FaultPlan` (wire-level drop/duplicate/
delay rules, process crash/restart, handler exceptions and stalls) and
execute it with :class:`FaultInjector`.
All randomness flows through :class:`repro.sim.RngRegistry` streams, so
identical ``(plan, seed)`` pairs replay identical fault timelines.

See ``docs/fault-injection.md`` for the fault taxonomy and guarantees.
"""

from .injector import FaultEvent, FaultInjector, HandlerAction, InjectedHandlerError
from .plan import (
    CrashFault,
    DelayRule,
    DropRule,
    DuplicateRule,
    FaultPlan,
    HandlerFaultRule,
    RestartFault,
    WireRule,
)

__all__ = [
    "CrashFault",
    "DelayRule",
    "DropRule",
    "DuplicateRule",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "HandlerAction",
    "HandlerFaultRule",
    "InjectedHandlerError",
    "RestartFault",
    "WireRule",
]
