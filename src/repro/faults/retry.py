"""Bounded retry with exponential backoff and deterministic jitter.

The service client owns the retry loop: it reads ``attempts`` (the
retries after the first try, which also bound how many load-shedding
``503`` replies one submission waits out) and calls :meth:`sleep`
between tries.

Jitter is drawn from a policy-owned seeded RNG, so a chaos run's sleep
schedule is as replayable as its injection trace.  Delays follow
``base_s * factor**attempt``, capped at ``max_s``, with up to
``jitter`` (a 0..1 fraction of the delay) added.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field


@dataclass
class RetryPolicy:
    """How many times to retry and how long to wait between tries."""

    attempts: int = 2
    base_s: float = 0.05
    factor: float = 2.0
    max_s: float = 2.0
    jitter: float = 0.5
    seed: int = 0
    _rng: random.Random = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.attempts < 0:
            raise ValueError("retry attempts must be >= 0")
        self._rng = random.Random(self.seed)

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        base = min(self.max_s, self.base_s * (self.factor ** attempt))
        return base * (1.0 + self.jitter * self._rng.random())

    def sleep(self, attempt: int) -> float:
        """Sleep the backoff for ``attempt``; returns the slept delay."""
        delay = self.delay(attempt)
        if delay > 0:
            time.sleep(delay)
        return delay
