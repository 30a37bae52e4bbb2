"""Shared-capacity rate limiting: the token bucket.

A :class:`TokenBucket` is a rate: tokens refill continuously at
``rate_per_s`` up to ``burst``; consumers ask how long obtaining a given
amount takes.  The background scrubber draws its per-chunk SSD reads
from one, where the interesting quantity is *when* work completes rather
than *whether* a slot exists.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import ConfigError

if TYPE_CHECKING:
    from .loop import EventLoop

__all__ = ["TokenBucket"]


class TokenBucket:
    """A continuously refilling rate limiter on the simulated timeline.

    Tokens accrue at ``rate_per_s`` up to ``burst``.  ``consume`` debits
    an amount (going negative is the queue) and returns how long the
    caller must wait for the debt to clear — the event-schedule analogue
    of offered-rate queueing.
    """

    def __init__(
        self,
        name: str,
        rate_per_s: float,
        *,
        loop: "EventLoop",
        burst: float | None = None,
    ) -> None:
        if rate_per_s <= 0:
            raise ConfigError(f"bucket {name!r} needs a positive rate")
        self.name = name
        self.rate_per_s = float(rate_per_s)
        self.burst = float(burst) if burst is not None else float(rate_per_s)
        if self.burst <= 0:
            raise ConfigError(f"bucket {name!r} needs a positive burst")
        self.loop = loop
        self.tokens = self.burst
        self.consumed_total = 0.0
        self._last_refill = loop.now

    def _refill(self) -> None:
        now = self.loop.now
        elapsed = now - self._last_refill
        if elapsed < 0:
            raise ConfigError(f"bucket {self.name!r} saw time run backwards")
        self.tokens = min(self.burst, self.tokens + elapsed * self.rate_per_s)
        self._last_refill = now

    def consume(self, amount: float) -> float:
        """Debit ``amount`` tokens; returns the wait until they exist.

        A zero return means the bucket absorbed the burst; a positive
        return is queueing delay the caller should ``Delay`` for.
        """
        if amount < 0:
            raise ConfigError("cannot consume a negative amount")
        self._refill()
        self.tokens -= amount
        self.consumed_total += amount
        if self.tokens >= 0:
            return 0.0
        return -self.tokens / self.rate_per_s

    @property
    def backlog_s(self) -> float:
        """Seconds of work currently queued behind the bucket."""
        self._refill()
        return max(0.0, -self.tokens) / self.rate_per_s
