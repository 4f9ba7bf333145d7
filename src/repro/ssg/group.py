"""SSG: Scalable Service Groups.

The Mochi core component that gives a set of service processes a stable
group identity: each member has a *rank* and clients resolve ranks to
addresses.  The production library layers SWIM-style failure
detection on top; Mochi services predominantly use static groups
with explicit join/leave, which is what this implements.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

__all__ = ["SSGGroup", "SSGError", "SSGView"]

_group_ids = itertools.count(1)


class SSGError(RuntimeError):
    """Membership lookup or mutation failure."""


@dataclass(frozen=True)
class SSGView:
    """An immutable, epoch-numbered snapshot of a group's membership.

    Views are what travels over the (simulated) fabric: the
    authoritative group stamps each membership change with a
    monotonically increasing epoch, and replicas only ever move
    *forward* — ``SSGGroup.apply_view`` rejects views at or below the
    replica's current epoch, so a view recorded before a death can
    never resurrect the dead member when it arrives late.
    """

    name: str
    epoch: int
    members: tuple[str, ...]

    @cached_property
    def member_set(self) -> frozenset[str]:
        """The members as a set, built once per view: every replica the
        view is applied to shares it."""
        return frozenset(self.members)


class SSGGroup:
    """A named group of service member addresses with stable ranks.

    Ranks are assigned in join order (matching ``ssg_group_create`` with
    an ordered address list); leaving compacts ranks.

    Membership is immutable and shared: the rank tuple and the member
    frozenset are never mutated, only replaced (``join``, ``leave`` and
    ``apply_view`` are copy-on-write).  So :meth:`replica` and
    :meth:`view` hand out the stored objects without copying, and a
    fleet of replicas at one epoch holds a single copy of the
    membership.
    """

    def __init__(self, name: str, members: Iterable[str] = ()):
        ranks = tuple(members)
        member_set = frozenset(ranks)
        if len(member_set) != len(ranks):
            dup = next(a for i, a in enumerate(ranks) if a in ranks[:i])
            raise SSGError(f"{dup!r} is already a member of {name!r}")
        self.name = name
        self.group_id = next(_group_ids)
        # One epoch per initial join, as if each member joined in turn.
        self.epoch = len(ranks)
        self._members = ranks
        self._member_set = member_set

    def replica(self) -> "SSGGroup":
        """A view replica of this group at the current epoch.

        The replica shares this group's membership storage (no
        per-member work, no per-replica copy); it moves independently
        from here on (``apply_view``, ``join``, ``leave`` replace its
        storage, never this group's).
        """
        return copy.copy(self)

    # -- membership --------------------------------------------------------

    @property
    def members(self) -> list[str]:
        return list(self._members)

    def __contains__(self, addr: str) -> bool:
        return addr in self._member_set

    def join(self, addr: str) -> int:
        """Add a member; returns its rank."""
        if addr in self._member_set:
            raise SSGError(f"{addr!r} is already a member of {self.name!r}")
        self._members = self._members + (addr,)
        self._member_set = self._member_set | {addr}
        self.epoch += 1
        return len(self._members) - 1

    def leave(self, addr: str) -> None:
        """Remove a member; later ranks shift down (rank compaction)."""
        try:
            rank = self._members.index(addr)
        except ValueError:
            raise SSGError(f"{addr!r} is not a member of {self.name!r}") from None
        self._members = self._members[:rank] + self._members[rank + 1 :]
        self._member_set = self._member_set - {addr}
        self.epoch += 1

    # -- views -------------------------------------------------------------

    def view(self) -> SSGView:
        """Immutable snapshot of the current membership at this epoch."""
        return SSGView(name=self.name, epoch=self.epoch, members=self._members)

    def apply_view(self, view: SSGView) -> bool:
        """Fast-forward this replica to ``view``.

        Returns ``True`` if the view was applied, ``False`` if it was
        stale (``view.epoch <= self.epoch``) and dropped.  The stale
        guard is what keeps a member that died during an in-flight
        propagation from being resurrected by the late arrival.
        """
        if view.name != self.name:
            raise SSGError(
                f"view for group {view.name!r} applied to group {self.name!r}"
            )
        if view.epoch <= self.epoch:
            return False
        self._members = tuple(view.members)
        self._member_set = view.member_set
        self.epoch = view.epoch
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SSGGroup({self.name!r}, size={len(self._members)})"
