"""The recovery rules the tuner and the daemon share, each written once.

* :func:`stable_hash` — the seeded 8-byte blake2b behind every
  deterministic decision: a measurement's scheduler seed
  (:func:`repro.autotuner.evaluation.measurement_seed`), an injected
  fault's firing fraction (:meth:`~repro.faults.FaultInjector.fires`)
  and a retry's jitter (:meth:`RetryPolicy.delay`).
* :class:`RetryPolicy` — capped exponential backoff with seeded jitter:
  the serve client's retries, and at ``jitter=0`` its job polling and
  the evaluator's retry rounds.
* :class:`Deadline` — a monotonic budget: a request's ``deadline_ms``,
  the admission queue's timeout, a drain, a job wait and a pool round.

How a deadline looks over HTTP (the 400 for a bad ``deadline_ms``, the
504 for an expired one) is the serving layer's business
(:mod:`repro.serve.resilience`).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Optional


def stable_hash(*parts: object) -> int:
    """A 64-bit hash of ``parts`` joined by ``|`` — deliberately *not*
    Python's salted ``hash()``, so every process and every run gets the
    same value for the same parts."""
    text = "|".join(map(str, parts))
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class DeadlineExceeded(Exception):
    """A budget expired before (or between) execution boundaries.  The
    message is a pure function of the budget — no wall-clock content —
    so shed records stay byte-deterministic."""


class Deadline:
    """A monotonic wall-clock budget of ``budget_ms``, counted from
    construction.  A budget of 0 (or less) is already expired."""

    __slots__ = ("budget_ms", "_expires_at")

    def __init__(self, budget_ms: float) -> None:
        self.budget_ms = float(budget_ms)
        self._expires_at = time.monotonic() + self.budget_ms / 1000.0

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        return cls(seconds * 1000.0)

    def expired(self) -> bool:
        return time.monotonic() >= self._expires_at

    def remaining_s(self) -> float:
        return max(0.0, self._expires_at - time.monotonic())

    def error(self) -> DeadlineExceeded:
        """The structured error — deterministic text (the budget, never
        the elapsed time) so batch records keep byte parity."""
        return DeadlineExceeded(
            f"{self.budget_ms:g}ms request budget exhausted"
        )


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with deterministic jitter.

    Attempt ``k`` waits ``backoff_s * 2**k`` capped at
    ``max_backoff_s``, scaled by ``1 ± jitter`` with the fraction drawn
    from ``stable_hash(seed, route, attempt)``, so a retry schedule
    replays identically across runs.  A ``Retry-After`` hint is honored
    (capped at ``max_backoff_s``) and never shortened.
    """

    retries: int = 3
    backoff_s: float = 0.05
    max_backoff_s: float = 2.0
    jitter: float = 0.25
    seed: int = 0x52E7

    def delay(
        self,
        route: str,
        attempt: int,
        retry_after: Optional[float] = None,
    ) -> float:
        # The exponent stops at 64 so a long poll never overflows.
        base = min(self.max_backoff_s, self.backoff_s * 2.0 ** min(attempt, 64))
        fraction = stable_hash(self.seed, route, attempt) / 2.0**64
        delay = base * (1.0 + self.jitter * (2.0 * fraction - 1.0))
        if retry_after is not None:
            delay = max(delay, min(float(retry_after), self.max_backoff_s))
        return delay
