"""Simulated Mercury RPC library with the SYMBIOSYS PVAR interface.

See DESIGN.md §2 item 4 and the paper's Section IV-B.
"""

from .bulk import BulkRef
from .core import (
    HGConfig,
    HGCore,
    HGHandle,
    RESILIENCE_PVARS,
    RequestWire,
    ResponseWire,
)
from .pvar import (
    PvarBinding,
    PvarClass,
    PvarDef,
    PvarError,
    PvarHandle,
    PvarRegistry,
    PvarSession,
    PvarTable,
)
from .serialization import SerializationModel, SizedBatch, estimate_size

__all__ = [
    "BulkRef",
    "HGConfig",
    "HGCore",
    "HGHandle",
    "PvarBinding",
    "PvarClass",
    "PvarDef",
    "PvarError",
    "PvarHandle",
    "PvarRegistry",
    "PvarSession",
    "PvarTable",
    "RESILIENCE_PVARS",
    "RequestWire",
    "ResponseWire",
    "SerializationModel",
    "SizedBatch",
    "estimate_size",
]
