"""Discrete-event simulation kernel (see :mod:`repro.sim.engine`)."""

from .clock import LocalClock
from .engine import (
    PeriodicSampler,
    SimEvent,
    SimulationError,
    Simulator,
    StopSimulation,
    all_of,
)
from .rng import RngRegistry

__all__ = [
    "LocalClock",
    "PeriodicSampler",
    "RngRegistry",
    "SimEvent",
    "SimulationError",
    "Simulator",
    "StopSimulation",
    "all_of",
]
