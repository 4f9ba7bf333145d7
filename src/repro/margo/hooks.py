"""Instrumentation hook interface between Margo and SYMBIOSYS.

Margo is "the ideal software layer to host the performance measurement
system" (paper §IV-A): every RPC passes through it on both sides.
:class:`Instrumentation` is the contract -- ``MargoInstance`` accepts any
implementation of it, calling each hook at the interception points
SYMBIOSYS uses.  All hooks have no-op default bodies, so implementations
override only what they need.  :class:`NullInstrumentation` overrides
nothing (the overhead study's *Baseline*);
:class:`repro.symbiosys.instrument.SymbiosysInstrumentation` implements
the real behaviour at the configured stage.

Hook call sites and their Figure 2 timestamps:

* ``attach``               -- once, at MargoInstance construction
* ``on_forward``           -- origin, t1, caller ULT, before the post
* ``on_forward_complete``  -- origin, t14, caller ULT, after the response
* ``on_forward_timeout``   -- origin, caller ULT, per-attempt deadline hit
* ``on_forward_retry``     -- origin, caller ULT, before the backoff sleep
* ``on_handler_start``     -- target, t5, handler ULT first instruction
* ``on_respond``           -- target, t8, handler ULT entering respond
* ``on_handler_end``       -- target, after t13, handler ULT about to exit
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..argobots import ULT
    from ..mercury import HGHandle
    from .instance import MargoInstance

__all__ = ["CompositeInstrumentation", "Instrumentation", "NullInstrumentation"]


class Instrumentation:
    """The hook contract between :class:`MargoInstance` and a measurement
    system.  Subclass and override the hooks you need; every default body
    is a no-op, so partial implementations are always safe to install."""

    def attach(self, mi: "MargoInstance") -> None:
        """Called once by MargoInstance at construction."""

    def on_forward(
        self, mi: "MargoInstance", handle: "HGHandle", ult: Optional["ULT"]
    ) -> None:
        """Origin, t1.  May write request metadata into ``handle.header``."""

    def on_forward_complete(
        self,
        mi: "MargoInstance",
        handle: "HGHandle",
        ult: Optional["ULT"],
        t1: float,
        t14: float,
    ) -> None:
        """Origin, t14.  The full origin execution interval is [t1, t14]."""

    def on_forward_timeout(
        self,
        mi: "MargoInstance",
        handle: "HGHandle",
        ult: Optional["ULT"],
        timeout: float,
    ) -> None:
        """Origin: this attempt's per-RPC deadline expired and the handle
        was cancelled.  Fires before any retry decision."""

    def on_forward_retry(
        self,
        mi: "MargoInstance",
        handle: "HGHandle",
        ult: Optional["ULT"],
        attempt: int,
        delay: float,
        target: str,
    ) -> None:
        """Origin: retry number ``attempt`` (1-based) is about to run
        against ``target`` after sleeping ``delay`` seconds.  ``handle``
        is the handle of the attempt that just failed."""

    def on_handler_start(
        self, mi: "MargoInstance", handle: "HGHandle", ult: "ULT"
    ) -> None:
        """Target, t5.  ``handle.marks['t4']`` holds the spawn time."""

    def on_respond(
        self, mi: "MargoInstance", handle: "HGHandle", ult: "ULT"
    ) -> None:
        """Target, t8, just before the response is serialized."""

    def on_handler_end(
        self, mi: "MargoInstance", handle: "HGHandle", ult: "ULT"
    ) -> None:
        """Target, after the response-sent callback (t13 in marks)."""


class NullInstrumentation(Instrumentation):
    """No-op hooks: instrumentation and measurement fully disabled."""


class CompositeInstrumentation(Instrumentation):
    """Fan one hook surface out to several implementations.

    MargoInstance holds exactly one ``instr``; when two systems need the
    hooks on the same process (e.g. SYMBIOSYS measurement plus the
    validation layer's RPC-lifecycle checker), wrap them:
    ``mi.instr = CompositeInstrumentation([mi.instr, checker])``.
    Children are invoked in list order; ``attach`` is forwarded like
    every other hook.
    """

    def __init__(self, children=()):
        self.children: list[Instrumentation] = list(children)

    def attach(self, mi: "MargoInstance") -> None:
        for child in self.children:
            child.attach(mi)

    def on_forward(self, mi, handle, ult) -> None:
        for child in self.children:
            child.on_forward(mi, handle, ult)

    def on_forward_complete(self, mi, handle, ult, t1, t14) -> None:
        for child in self.children:
            child.on_forward_complete(mi, handle, ult, t1, t14)

    def on_forward_timeout(self, mi, handle, ult, timeout) -> None:
        for child in self.children:
            child.on_forward_timeout(mi, handle, ult, timeout)

    def on_forward_retry(self, mi, handle, ult, attempt, delay, target) -> None:
        for child in self.children:
            child.on_forward_retry(mi, handle, ult, attempt, delay, target)

    def on_handler_start(self, mi, handle, ult) -> None:
        for child in self.children:
            child.on_handler_start(mi, handle, ult)

    def on_respond(self, mi, handle, ult) -> None:
        for child in self.children:
            child.on_respond(mi, handle, ult)

    def on_handler_end(self, mi, handle, ult) -> None:
        for child in self.children:
            child.on_handler_end(mi, handle, ult)
