"""Shared behaviour for the repository's knob dataclasses.

Every tunable-parameter dataclass (``FabricConfig``, ``HGConfig``,
``MargoConfig``, ``SerializationModel``, ``RetryPolicy``, ...) is frozen
and keyword-only: experiments never depend on field order, and adding a
knob is always backward compatible.  :class:`Replaceable` contributes the
``replace`` helper so configs can be derived from one another without
rebuilding every field by hand::

    fast = FabricConfig()
    slow = fast.replace(latency=3e-6)
"""

from __future__ import annotations

import dataclasses

__all__ = ["Replaceable"]


class Replaceable:
    """Mixin for frozen knob dataclasses: ``cfg.replace(**overrides)``
    returns a copy with the given fields replaced (and the usual
    ``__post_init__`` validation re-run)."""

    def replace(self, **overrides):
        return dataclasses.replace(self, **overrides)
