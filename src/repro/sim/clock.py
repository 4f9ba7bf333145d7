"""Per-process wall clocks with drift and offset.

Real distributed tracing has to cope with unsynchronized clocks; the paper
applies Lamport's logical-clock algorithm to order trace events across
processes.  To make that machinery meaningful (and testable) in a
simulation, every process reads timestamps from a :class:`LocalClock`
that maps true simulated time onto a skewed local timeline.
"""

from __future__ import annotations

__all__ = ["LocalClock"]


class LocalClock:
    """An affine mapping ``local = offset + (1 + drift) * true_time``.

    ``drift`` is dimensionless (e.g. ``1e-5`` is 10 ppm); ``offset`` is in
    simulated seconds.  Both default to zero, giving a perfect clock.
    """

    __slots__ = ("offset", "drift")

    def __init__(self, offset: float = 0.0, drift: float = 0.0):
        if drift <= -1.0:
            raise ValueError("drift must be > -1 (clock must move forward)")
        self.offset = float(offset)
        self.drift = float(drift)

    def read(self, true_time: float) -> float:
        """Local timestamp corresponding to true simulated ``true_time``."""
        return self.offset + (1.0 + self.drift) * true_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LocalClock(offset={self.offset}, drift={self.drift})"
