"""SSG: Scalable Service Groups.

The Mochi core component that gives a set of service processes a stable
group identity: each member has a *rank*, clients resolve ranks to
addresses, and key-based member selection gives services a consistent
way to shard work.  The production library layers SWIM-style failure
detection on top; Mochi services predominantly use static groups
with explicit join/leave, which is what this implements (observers are
notified on membership changes so services can rebalance).
"""

from __future__ import annotations

import copy
import hashlib
import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Optional

__all__ = ["SSGGroup", "SSGError", "SSGView"]

_group_ids = itertools.count(1)


class SSGError(RuntimeError):
    """Membership lookup or mutation failure."""


def _key_hash(key: str) -> int:
    return int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "little")


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

    def to_dict(self) -> dict:
        return {"name": self.name, "epoch": self.epoch, "members": list(self.members)}

    @classmethod
    def from_dict(cls, d: dict) -> "SSGView":
        return cls(name=d["name"], epoch=int(d["epoch"]), members=tuple(d["members"]))


class SSGGroup:
    """A named group of service member addresses with stable ranks.

    Ranks are assigned in join order (matching ``ssg_group_create`` with
    an ordered address list); leaving compacts ranks, and observers are
    told about every membership change.

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
        self._observers: list[Callable[[str, str, int], None]] = []

    def replica(self) -> "SSGGroup":
        """A view replica of this group at the current epoch.

        The replica shares this group's membership storage (no
        per-member work, no per-replica copy) and has no observers; it
        moves independently from here on (``apply_view``, ``join``,
        ``leave`` replace its storage, never this group's).
        """
        r = copy.copy(self)
        r._observers = []
        return r

    # -- membership --------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self._members)

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
        rank = len(self._members) - 1
        self.epoch += 1
        self._notify("join", addr, rank)
        return rank

    def leave(self, addr: str) -> None:
        """Remove a member; later ranks shift down (rank compaction)."""
        try:
            rank = self._members.index(addr)
        except ValueError:
            raise SSGError(f"{addr!r} is not a member of {self.name!r}") from None
        self._members = self._members[:rank] + self._members[rank + 1 :]
        self._member_set = self._member_set - {addr}
        self.epoch += 1
        self._notify("leave", addr, rank)

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
        Observers see synthetic leave/join deltas for the difference.
        """
        if view.name != self.name:
            raise SSGError(
                f"view for group {view.name!r} applied to group {self.name!r}"
            )
        if view.epoch <= self.epoch:
            return False
        old, old_set = self._members, self._member_set
        new, new_set = tuple(view.members), view.member_set
        self._members = new
        self._member_set = new_set
        self.epoch = view.epoch
        for rank, addr in enumerate(old):
            if addr not in new_set:
                self._notify("leave", addr, rank)
        for rank, addr in enumerate(new):
            if addr not in old_set:
                self._notify("join", addr, rank)
        return True

    # -- lookups ---------------------------------------------------------------

    def rank_of(self, addr: str) -> int:
        try:
            return self._members.index(addr)
        except ValueError:
            raise SSGError(f"{addr!r} is not a member of {self.name!r}") from None

    def address_of(self, rank: int) -> str:
        if not 0 <= rank < len(self._members):
            raise SSGError(
                f"rank {rank} out of range for group {self.name!r} "
                f"(size {len(self._members)})"
            )
        return self._members[rank]

    def member_for_key(self, key: str) -> str:
        """Consistent key-based member selection (hash mod size)."""
        if not self._members:
            raise SSGError(f"group {self.name!r} is empty")
        return self._members[_key_hash(key) % len(self._members)]

    # -- observers ---------------------------------------------------------------

    def observe(self, callback: Callable[[str, str, int], None]) -> None:
        """``callback(change, addr, rank)`` on join/leave."""
        self._observers.append(callback)

    def _notify(self, change: str, addr: str, rank: int) -> None:
        for cb in self._observers:
            cb(change, addr, rank)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SSGGroup({self.name!r}, size={self.size})"
