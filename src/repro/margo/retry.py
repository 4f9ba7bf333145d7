"""Client-side resilience policy for ``MargoInstance.forward``.

Real Mochi clients wrap ``margo_forward_timed`` in retry loops (e.g. the
SSG group-management and Bedrock bootstrap paths).  :class:`RetryPolicy`
captures that pattern declaratively: a per-attempt timeout, a bounded
number of attempts, exponential backoff with optional jitter, and an
optional fail-over target list rotated on each retry.

The policy is pure data (frozen, keyword-only, :meth:`replace`-able like
the other knob dataclasses); the retry loop itself lives in
``MargoInstance.forward``.  Jittered backoff draws from the instance's
seeded RNG stream so fault campaigns replay deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import Replaceable

__all__ = ["RetryPolicy"]


@dataclass(frozen=True, kw_only=True)
class RetryPolicy(Replaceable):
    """How ``forward`` behaves when a response does not arrive in time.

    An attempt fails when its per-attempt ``timeout`` expires (the handle
    is cancelled and any late response is dropped); a remote handler
    error is not transient and is raised at once.  Failed attempts are
    retried up to ``max_attempts`` total tries, sleeping
    ``backoff * backoff_factor**(attempt-1)`` (clamped to ``max_backoff``,
    plus uniform jitter) between tries.  If ``failover`` targets are
    given, retries rotate through them round-robin starting from the
    original target.
    """

    #: Total tries, including the first (1 = no retry).
    max_attempts: int = 3
    #: Per-attempt response deadline, seconds.
    timeout: float = 1.0
    #: Base delay before the first retry, seconds.
    backoff: float = 1e-3
    #: Multiplier applied per subsequent retry (exponential backoff).
    backoff_factor: float = 2.0
    #: Upper clamp on the (pre-jitter) backoff delay, seconds.
    max_backoff: float = 1.0
    #: Uniform jitter fraction in [0, 1]: the sleep is scaled by a factor
    #: drawn from ``[1 - jitter, 1 + jitter]``.  0 disables jitter.
    jitter: float = 0.0
    #: Alternate target addresses to rotate through on retries.  Empty
    #: means always retry the original target.
    failover: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.backoff < 0 or self.max_backoff < 0:
            raise ValueError("backoff delays must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        object.__setattr__(self, "failover", tuple(self.failover))

    def delay(self, attempt: int, rng=None) -> float:
        """Backoff sleep before retry number ``attempt`` (1-based).

        ``rng`` is a numpy Generator used only when ``jitter`` is set.
        """
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        base = min(self.backoff * self.backoff_factor ** (attempt - 1),
                   self.max_backoff)
        if self.jitter > 0 and rng is not None:
            base *= 1.0 + self.jitter * (2.0 * float(rng.random()) - 1.0)
        return base

    def target_for(self, original: str, attempt: int) -> str:
        """Target address for attempt number ``attempt`` (1-based)."""
        if not self.failover or attempt <= 1:
            return original
        ring = (original,) + self.failover
        return ring[(attempt - 1) % len(ring)]
