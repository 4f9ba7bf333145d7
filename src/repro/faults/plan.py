"""Declarative fault campaigns.

A :class:`FaultPlan` is a pure description of *what can go wrong* during
a simulated run -- it holds no state and touches no RNG.  The
:class:`~repro.faults.injector.FaultInjector` executes a plan against a
concrete fabric and set of Margo processes, drawing every probabilistic
decision from named seeded streams (:class:`repro.sim.RngRegistry`), so
one ``(plan, seed)`` pair always replays the identical fault timeline.

Three fault layers mirror where real deployments degrade:

* **wire rules** -- per-message drop, duplication, and latency spikes on
  the fabric (:class:`DropRule`, :class:`DuplicateRule`,
  :class:`DelayRule`),
* **process faults** -- a server crashing (:class:`CrashFault`), or
  crashing and coming back after a downtime plus slow-restart warmup
  (:class:`RestartFault`),
* **handler rules** -- injected handler exceptions and artificial stalls
  inside RPC handlers (:class:`HandlerFaultRule`).

All windows are ``[start, end)`` in simulated seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from ..config import Replaceable

__all__ = [
    "WireRule",
    "DropRule",
    "DuplicateRule",
    "DelayRule",
    "CrashFault",
    "RestartFault",
    "HandlerFaultRule",
    "FaultPlan",
]


def _check_window(start: float, end: float) -> None:
    if start < 0:
        raise ValueError("window start must be non-negative")
    if end <= start:
        raise ValueError("window end must be after its start")


def _check_probability(p: float, name: str = "probability") -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{name} must be in [0, 1]")


@dataclass(frozen=True, kw_only=True)
class WireRule(Replaceable):
    """Base matcher for per-message fabric rules.

    ``src``/``dst`` match endpoint addresses, ``kind`` the message kind
    (``"rpc_request"`` / ``"rpc_response"``); ``None`` matches anything.
    """

    src: str | None = None
    dst: str | None = None
    kind: str | None = None
    probability: float = 1.0
    start: float = 0.0
    end: float = math.inf

    def __post_init__(self) -> None:
        _check_probability(self.probability)
        _check_window(self.start, self.end)

    def matches(self, *, src: str, dst: str, kind: str, now: float) -> bool:
        if not self.start <= now < self.end:
            return False
        if self.src is not None and self.src != src:
            return False
        if self.dst is not None and self.dst != dst:
            return False
        if self.kind is not None and self.kind != kind:
            return False
        return True


@dataclass(frozen=True, kw_only=True)
class DropRule(WireRule):
    """Silently lose matching messages with ``probability``."""


@dataclass(frozen=True, kw_only=True)
class DuplicateRule(WireRule):
    """Deliver ``copies`` extra copies of matching messages (the
    at-least-once hazard retried RPCs must survive)."""

    copies: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.copies < 1:
            raise ValueError("copies must be at least 1")


@dataclass(frozen=True, kw_only=True)
class DelayRule(WireRule):
    """Add a latency spike to matching messages: ``extra`` seconds fixed
    plus a uniform draw in ``[0, spread)``."""

    extra: float = 0.0
    spread: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.extra < 0 or self.spread < 0:
            raise ValueError("extra and spread must be non-negative")
        if self.extra == 0 and self.spread == 0:
            raise ValueError("DelayRule needs a non-zero extra or spread")


@dataclass(frozen=True, kw_only=True)
class CrashFault(Replaceable):
    """Process ``addr`` dies at ``at`` and never comes back: its endpoint
    stops sending/receiving and its progress engine halts."""

    addr: str
    at: float

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError("crash time must be non-negative")


@dataclass(frozen=True, kw_only=True)
class RestartFault(Replaceable):
    """Process ``addr`` crashes at ``at`` and is revived after
    ``downtime`` seconds.  During the following ``warmup`` the endpoint
    accepts traffic but the progress engine has not started yet -- the
    slow-restart shadow where a server is reachable but unresponsive."""

    addr: str
    at: float
    downtime: float
    warmup: float = 0.0

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError("restart time must be non-negative")
        if self.downtime <= 0:
            raise ValueError("downtime must be positive")
        if self.warmup < 0:
            raise ValueError("warmup must be non-negative")


@dataclass(frozen=True, kw_only=True)
class HandlerFaultRule(Replaceable):
    """Inject failures inside matching RPC handlers.

    With ``error_probability`` the handler raises
    :class:`~repro.faults.injector.InjectedHandlerError` (travelling back
    to the origin as a ``RemoteRpcError``); independently, with
    ``stall_probability`` it burns ``stall`` extra seconds of simulated
    CPU before running.
    """

    rpc: str | None = None
    addr: str | None = None
    error_probability: float = 0.0
    stall_probability: float = 0.0
    stall: float = 0.0
    start: float = 0.0
    end: float = math.inf

    def __post_init__(self) -> None:
        _check_probability(self.error_probability, "error_probability")
        _check_probability(self.stall_probability, "stall_probability")
        _check_window(self.start, self.end)
        if self.stall < 0:
            raise ValueError("stall must be non-negative")
        if self.error_probability == 0 and self.stall_probability == 0:
            raise ValueError("HandlerFaultRule injects nothing")
        if self.stall_probability > 0 and self.stall <= 0:
            raise ValueError("stall_probability needs a positive stall")

    def matches(self, *, rpc: str, addr: str, now: float) -> bool:
        if not self.start <= now < self.end:
            return False
        if self.rpc is not None and self.rpc != rpc:
            return False
        if self.addr is not None and self.addr != addr:
            return False
        return True


#: The rule types each plan section holds, by their JSON ``type`` name.
_SECTIONS = {
    section: {rule_cls.__name__: rule_cls for rule_cls in types}
    for section, types in (
        ("wire_rules", (DropRule, DuplicateRule, DelayRule)),
        ("process_faults", (CrashFault, RestartFault)),
        ("handler_rules", (HandlerFaultRule,)),
    )
}


@dataclass(frozen=True, kw_only=True)
class FaultPlan(Replaceable):
    """One complete fault campaign: wire rules, process faults and
    handler rules, under a human-readable name."""

    name: str = "campaign"
    wire_rules: tuple[WireRule, ...] = ()
    process_faults: tuple[CrashFault | RestartFault, ...] = ()
    handler_rules: tuple[HandlerFaultRule, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        # Normalize lists passed by callers into tuples (plans stay
        # hashable/frozen).
        for attr in _SECTIONS:
            value = getattr(self, attr)
            if not isinstance(value, tuple):
                object.__setattr__(self, attr, tuple(value))

    @property
    def is_empty(self) -> bool:
        return not (self.wire_rules or self.process_faults or self.handler_rules)

    def faults_for(self, addr: str) -> list[CrashFault | RestartFault]:
        """The scheduled process faults targeting ``addr``."""
        return [f for f in self.process_faults if f.addr == addr]

    # -- JSON round-trip ---------------------------------------------------
    #
    # Plans travel through repro files (the fuzz runner's shrunk minimal
    # configs), so they need a lossless JSON form.  ``math.inf`` window
    # ends become the string "inf" -- JSON has no infinity.  A repro file
    # is outside input: an unknown key, or a rule filed under a section
    # it does not belong to, is refused rather than dropped or deferred.

    def to_dict(self) -> dict:
        def rule_dict(rule) -> dict:
            d = {"type": type(rule).__name__}
            for f in fields(rule):
                value = getattr(rule, f.name)
                if isinstance(value, float) and math.isinf(value):
                    value = "inf"
                d[f.name] = value
            return d

        return {
            "name": self.name,
            **{
                section: [rule_dict(r) for r in getattr(self, section)]
                for section in _SECTIONS
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        unknown = sorted(set(data) - {"name", *_SECTIONS})
        if unknown:
            raise ValueError(
                f"unknown fault plan key(s) {', '.join(map(repr, unknown))}; "
                f"expected 'name' or one of {', '.join(map(repr, _SECTIONS))}"
            )

        def build(section: str, entry: dict):
            entry = dict(entry)
            type_name = entry.pop("type", None)
            rule_cls = _SECTIONS[section].get(type_name)
            if rule_cls is None:
                raise ValueError(
                    f"fault rule type {type_name!r} does not belong in "
                    f"{section!r}; expected one of "
                    f"{', '.join(_SECTIONS[section])}"
                )
            kwargs = {
                k: (math.inf if v == "inf" else v) for k, v in entry.items()
            }
            return rule_cls(**kwargs)

        return cls(
            name=data.get("name", "campaign"),
            **{
                section: tuple(build(section, e) for e in data.get(section, ()))
                for section in _SECTIONS
            },
        )
