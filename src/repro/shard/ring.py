"""Seeded consistent-hash ring with virtual nodes.

Tokens come from sha256 (first 8 bytes, little-endian) so placement is
identical across processes and interpreter runs — Python's builtin
``hash()`` is salted per process and must never leak into placement.
Each node contributes ``vnodes`` points on the ring; a key is owned by
the first node token at or clockwise of the key's token.
"""

from __future__ import annotations

import bisect
import hashlib
import heapq
from typing import Iterable

__all__ = ["HashRing", "h64"]


def h64(text: str) -> int:
    """Stable 64-bit hash of ``text`` (sha256 prefix, little-endian)."""
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "little")


class HashRing:
    """Consistent-hash ring over node addresses.

    ``seed`` perturbs every token, so two rings with different seeds
    give independent placements while a fixed seed is fully
    deterministic.  Every node gets ``vnodes`` tokens.
    """

    def __init__(self, seed: int = 0, vnodes: int = 64):
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.seed = seed
        self.vnodes = vnodes
        self._nodes: set[str] = set()
        self._tokens: list[int] = []
        self._owners: list[str] = []

    # -- membership --------------------------------------------------------

    @property
    def nodes(self) -> list[str]:
        return sorted(self._nodes)

    def __contains__(self, addr: str) -> bool:
        return addr in self._nodes

    def _token(self, addr: str, vnode: int) -> int:
        return h64(f"{addr}#{vnode}#{self.seed}")

    def _vnode_pairs(self, addr: str) -> list[tuple[int, str]]:
        return sorted((self._token(addr, v), addr) for v in range(self.vnodes))

    def _set_pairs(self, pairs: list[tuple[int, str]]) -> None:
        # The ring invariant: sorted by (token, owner address) -- the
        # address tie-break keeps sha256 token collisions (out of
        # scope, but cheap to order) independent of insertion order.
        self._tokens = [t for t, _ in pairs]
        self._owners = [o for _, o in pairs]

    def add_node(self, addr: str) -> None:
        if addr in self._nodes:
            raise ValueError(f"{addr!r} already on ring")
        self._nodes.add(addr)
        # One sorted merge instead of per-token list.insert: O(N + V)
        # for the incremental churn path.
        self._set_pairs(
            list(
                heapq.merge(
                    zip(self._tokens, self._owners),
                    self._vnode_pairs(addr),
                )
            )
        )

    def remove_node(self, addr: str) -> None:
        if addr not in self._nodes:
            raise ValueError(f"{addr!r} not on ring")
        self._nodes.remove(addr)
        keep = [(t, o) for t, o in zip(self._tokens, self._owners) if o != addr]
        self._tokens = [t for t, _ in keep]
        self._owners = [o for _, o in keep]

    def replace(self, members: Iterable[str]) -> None:
        """Reset the ring to exactly ``members``.

        Bulk path: every token is hashed once and the tokens are sorted
        globally -- identical placement to repeated :meth:`add_node` but
        O(NV log NV) instead of the O((NV)^2) element moves of per-token
        list inserts, which dominated ring construction at thousand-node
        fleets (every router builds its own ring).  Tokens are laid out
        in address order and the sort is stable, so sorting positions by
        the bare int token keeps the (token, address) order of
        :meth:`_set_pairs` without building a tuple per token.
        """
        nodes: set[str] = set()
        for addr in members:
            if addr in nodes:
                raise ValueError(f"{addr!r} already on ring")
            nodes.add(addr)
        self._nodes = nodes
        addrs = sorted(nodes)
        vnodes = self.vnodes
        # h64(f"{addr}#{v}#{seed}") with the "#{v}#{seed}" tails encoded
        # once for every member.
        tails = [f"#{v}#{self.seed}".encode() for v in range(vnodes)]
        sha256 = hashlib.sha256
        from_bytes = int.from_bytes
        tokens: list[int] = []
        for addr in addrs:
            head = addr.encode()
            tokens += [
                from_bytes(sha256(head + tail).digest()[:8], "little")
                for tail in tails
            ]
        order = sorted(range(len(tokens)), key=tokens.__getitem__)
        self._tokens = [tokens[i] for i in order]
        self._owners = [addrs[i // vnodes] for i in order]

    # -- lookup ------------------------------------------------------------

    def node_for(self, key: str) -> str:
        """Owner of ``key``: first node token clockwise of the key."""
        if not self._tokens:
            raise LookupError("ring is empty")
        i = bisect.bisect_right(self._tokens, h64(key))
        if i == len(self._tokens):
            i = 0
        return self._owners[i]
