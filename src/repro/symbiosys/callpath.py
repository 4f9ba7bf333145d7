"""Distributed callpath ancestry encoding (paper §IV-A-1).

Each RPC name is hashed to a 16-bit component.  A callpath is a 64-bit
value built by shifting the current ancestry left 16 bits and OR-ing in
the new component::

    code' = ((code << 16) | hash16(name)) mod 2**64

which bounds the representable chain length at **four** -- exactly the
paper's limitation ("Currently, Margo can store RPC callpath lengths of
up to four in the 64-bit hash value").  Deeper chains silently drop the
oldest ancestor; :func:`components` and the registry make that behaviour
observable and tested rather than implicit.

The component hash is mapped into ``1..65535`` so that a zero 16-bit
chunk always means "empty slot", keeping decoding unambiguous.
"""

from __future__ import annotations

import hashlib

__all__ = [
    "MAX_DEPTH",
    "hash16",
    "push",
    "components",
    "CallpathRegistry",
]

MAX_DEPTH = 4
_MASK64 = (1 << 64) - 1
_MASK16 = (1 << 16) - 1


def hash16(rpc_name: str) -> int:
    """Stable 16-bit hash of an RPC name, in ``1..65535``."""
    digest = hashlib.sha256(rpc_name.encode("utf-8")).digest()
    h = int.from_bytes(digest[:2], "little")
    return (h % _MASK16) + 1  # never 0


def push(code: int, rpc_name: str) -> int:
    """Extend ancestry ``code`` with a downstream RPC call."""
    if not 0 <= code <= _MASK64:
        raise ValueError(f"callpath code out of range: {code:#x}")
    return ((code << 16) | hash16(rpc_name)) & _MASK64


def components(code: int) -> list[int]:
    """The 16-bit components of ``code``, oldest ancestor first.

    Leading zero chunks (unused slots) are skipped; interior zero chunks
    cannot occur because :func:`hash16` never returns 0.
    """
    if not 0 <= code <= _MASK64:
        raise ValueError(f"callpath code out of range: {code:#x}")
    chunks = [(code >> shift) & _MASK16 for shift in (48, 32, 16, 0)]
    while chunks and chunks[0] == 0:
        chunks.pop(0)
    return chunks


class CallpathRegistry:
    """Maps 16-bit components back to RPC names for decoding profiles.

    Populated as instrumentation observes RPC registrations/invocations.
    Hash collisions (two names, one component) are recorded so analysis
    output can flag ambiguous decodes instead of guessing silently.
    """

    def __init__(self) -> None:
        self._names: dict[int, str] = {}
        self.collisions: dict[int, set[str]] = {}

    def register(self, rpc_name: str) -> int:
        h = hash16(rpc_name)
        existing = self._names.get(h)
        if existing is None:
            self._names[h] = rpc_name
        elif existing != rpc_name:
            self.collisions.setdefault(h, {existing}).add(rpc_name)
        return h

    def name_of(self, component: int) -> str:
        if component in self.collisions:
            options = "|".join(sorted(self.collisions[component]))
            return f"<ambiguous:{options}>"
        return self._names.get(component, f"<unknown:{component:#06x}>")

    def decode(self, code: int) -> str:
        """Human-readable callpath, e.g.
        ``mobject_write_op -> sdskv_put_rpc``."""
        parts = components(code)
        if not parts:
            return "<root>"
        return " -> ".join(self.name_of(c) for c in parts)
