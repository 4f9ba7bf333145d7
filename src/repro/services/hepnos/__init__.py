"""HEPnOS: a Mochi storage service for high-energy physics events."""

from .dataloader import DataLoader, DataLoaderConfig
from .hierarchy import event_key, run_event_pairs
from .service import HEPnOSClient, HEPnOSService, PID_BAKE, PID_SDSKV

__all__ = [
    "DataLoader",
    "DataLoaderConfig",
    "HEPnOSClient",
    "HEPnOSService",
    "PID_BAKE",
    "PID_SDSKV",
    "event_key",
    "run_event_pairs",
]
