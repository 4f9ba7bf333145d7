"""Discrete-event simulation kernel (see :mod:`repro.sim.engine`)."""

from .clock import LocalClock
from .engine import (
    SimEvent,
    SimulationError,
    Simulator,
    StopSimulation,
    all_of,
)
from .rng import RngRegistry

__all__ = [
    "LocalClock",
    "RngRegistry",
    "SimEvent",
    "SimulationError",
    "Simulator",
    "StopSimulation",
    "all_of",
]
