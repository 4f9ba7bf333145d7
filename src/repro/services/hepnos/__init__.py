"""HEPnOS: a Mochi storage service for high-energy physics events."""

from .dataloader import DataLoader, DataLoaderConfig
from .hierarchy import EventKey, event_key, parse_event_key, run_event_pairs
from .service import HEPnOSClient, HEPnOSService, PID_BAKE, PID_SDSKV

__all__ = [
    "DataLoader",
    "DataLoaderConfig",
    "EventKey",
    "HEPnOSClient",
    "HEPnOSService",
    "PID_BAKE",
    "PID_SDSKV",
    "event_key",
    "parse_event_key",
    "run_event_pairs",
]
