"""Serving-layer resilience: admission control, structured shedding,
drain coordination, and what a deadline looks like over HTTP.

The serve daemon fronts heavy traffic with finite resources, so every
overload decision is made *explicitly* here instead of implicitly by
queue growth:

* :class:`AdmissionController` — a weighted concurrency limiter plus a
  bounded accept queue in front of ``ServeApp.run/batch/tune``.  A
  request is admitted immediately when in-flight weight fits
  ``max_concurrency``, waits (bounded, deadline-aware) when the accept
  queue has room, and otherwise is **shed immediately** with a
  structured :class:`ShedError` (HTTP 429/503 + ``Retry-After`` + a
  machine-readable ``reason``) — never silently queued to OOM.  Batch
  requests weigh their request count, so one 1024-line batch cannot
  starve the limiter accounting.
* :func:`request_deadline` — a request's ``deadline_ms`` (or the server
  default) as a :class:`~repro.faults.Deadline`, the one home of the
  budget rule (a finite number > 0, else a 400); an expired budget is
  the admission controller's 504.  The batch engine checks it at
  bucket/segment boundaries; an expired request gets a well-formed
  :class:`~repro.faults.DeadlineExceeded` record while bucket-mates
  already executing complete normally.
* :class:`ResilienceConfig` — one knob bundle threaded from the CLI
  through the app to the admission controller and drain logic.

Counters (on the app's :class:`~repro.observe.trace.TraceSink`):
``serve.shed.capacity`` / ``serve.shed.queue_timeout`` /
``serve.shed.draining`` / ``serve.shed.injected``,
``serve.deadline.expired`` / ``serve.deadline.batch_requests``,
``serve.drain.begun`` / ``serve.drain.completed`` /
``serve.drain.forced``; the client counts ``serve.retry.attempts`` /
``serve.retry.recoveries`` / ``serve.retry.giveups`` on its own sink.
"""

from __future__ import annotations

import contextlib
import math
import threading
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Mapping, Optional

from repro.faults import Deadline


class ServeError(Exception):
    """An error with an HTTP status; the daemon maps it to a JSON body.

    ``code`` is the machine-readable reason (``"capacity"``,
    ``"draining"``, ``"deadline_exceeded"``, …) clients branch on;
    ``retry_after`` (seconds) is the shed back-pressure hint surfaced
    both in the body and as the HTTP ``Retry-After`` header.
    """

    def __init__(
        self,
        status: int,
        message: str,
        code: Optional[str] = None,
        retry_after: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.code = code
        self.retry_after = retry_after


class ShedError(ServeError):
    """Load shed: the request was refused *before* any work happened,
    so retrying it (after ``retry_after``) is always safe."""


def deadline_ms(raw: Any) -> float:
    """``raw`` as a deadline budget in ms: a finite number > 0, never a
    bool.  Anything else is a ``ValueError`` naming the rule."""
    try:
        budget = float(raw)
    except (TypeError, ValueError):
        budget = math.nan
    if isinstance(raw, bool) or not (math.isfinite(budget) and budget > 0):
        raise ValueError("must be a finite number > 0")
    return budget


def request_deadline(
    payload: Mapping[str, Any], default_ms: Optional[float] = None
) -> Optional[Deadline]:
    """The request's ``deadline_ms`` (or the server default, or ``None``
    for unbounded).  A malformed value is a 400."""
    raw = payload.get("deadline_ms", default_ms)
    if raw is None:
        return None
    try:
        return Deadline(deadline_ms(raw))
    except ValueError as exc:
        raise ServeError(400, f"bad deadline_ms {raw!r}: {exc}") from None


@dataclass
class ResilienceConfig:
    """Serving-resilience knobs (one instance per :class:`ServeApp`).

    ``max_concurrency`` and ``max_queue`` are *weighted* units: a run or
    tune costs 1, a batch costs its request-line count (clamped to
    ``max_concurrency`` so a maximal batch occupies the whole limiter
    rather than becoming unservable).  ``queue_high_water`` is the
    readiness threshold: ``/ready`` reports saturated once the accept
    queue holds that many units.
    """

    max_concurrency: int = 8
    max_queue: int = 16
    queue_timeout_s: float = 30.0
    default_deadline_ms: Optional[float] = None
    drain_timeout_s: float = 10.0
    retry_after_s: float = 0.05

    def __post_init__(self) -> None:
        if self.max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        if self.max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        if self.default_deadline_ms is not None:
            try:
                deadline_ms(self.default_deadline_ms)
            except ValueError as exc:
                raise ValueError(f"default_deadline_ms {exc}") from None

    @property
    def queue_high_water(self) -> int:
        return max(1, self.max_queue // 2)

    def clamp_cost(self, cost: int) -> int:
        return max(1, min(int(cost), self.max_concurrency))


class AdmissionController:
    """Weighted concurrency limiter + bounded accept queue.

    All state lives under one condition variable: ``_inflight`` is the
    weighted cost of admitted requests, ``_queued`` the weighted cost of
    requests waiting for a slot.  ``admit`` is a context manager; the
    slot is released on exit however the request ends.

    Shedding is immediate and structured:

    * draining → 503 ``draining`` (retry against the next instance),
    * accept queue full → 429 ``capacity``,
    * queued past ``queue_timeout_s`` → 429 ``queue_timeout``,
    * queued past the request deadline → :meth:`check_deadline`'s 504.
    """

    def __init__(self, config: ResilienceConfig, sink=None) -> None:
        self.config = config
        self.sink = sink
        self._cond = threading.Condition()
        self._inflight = 0
        self._queued = 0
        self._draining = False

    # -- introspection ------------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining

    def snapshot(self) -> Dict[str, Any]:
        with self._cond:
            return {
                "inflight": self._inflight,
                "queued": self._queued,
                "max_concurrency": self.config.max_concurrency,
                "max_queue": self.config.max_queue,
                "draining": self._draining,
            }

    def ready(self) -> Dict[str, Any]:
        """The readiness probe's verdict: accepting and not saturated."""
        with self._cond:
            if self._draining:
                return {"ready": False, "reason": "draining"}
            if self._queued >= self.config.queue_high_water:
                return {"ready": False, "reason": "saturated"}
            return {"ready": True, "reason": "ok"}

    # -- admission ----------------------------------------------------------

    @contextlib.contextmanager
    def admit(
        self,
        route: str,
        cost: int = 1,
        deadline: Optional[Deadline] = None,
        forced_shed: bool = False,
    ) -> Iterator[None]:
        cost = self.config.clamp_cost(cost)
        self._acquire(route, cost, deadline, forced_shed)
        try:
            yield
        finally:
            with self._cond:
                self._inflight -= cost
                self._cond.notify_all()

    def check_deadline(self, deadline: Optional[Deadline]) -> None:
        """Raise the structured 504 if ``deadline`` has expired."""
        if deadline is not None and deadline.expired():
            self._count("serve.deadline.expired")
            raise ServeError(
                504, f"deadline_exceeded: {deadline.error()}",
                code="deadline_exceeded",
            )

    def draining_shed(self, route: str) -> ShedError:
        """The 503 every route sheds with once the daemon drains."""
        return self._shed(
            route, "draining", 503, "draining",
            "daemon is draining; retry against the next instance",
        )

    def _shed(
        self, route: str, counter: str, status: int, code: str, message: str
    ) -> ShedError:
        self._count(f"serve.shed.{counter}")
        retry_after = (
            self.config.drain_timeout_s
            if code == "draining"
            else self.config.retry_after_s
        )
        return ShedError(
            status,
            f"{route} shed: {message}",
            code=code,
            retry_after=retry_after,
        )

    def _acquire(
        self,
        route: str,
        cost: int,
        deadline: Optional[Deadline],
        forced_shed: bool,
    ) -> None:
        queue_deadline = Deadline.after(self.config.queue_timeout_s)
        with self._cond:
            if forced_shed:
                raise self._shed(
                    route, "injected", 429, "capacity",
                    "injected shed storm (dev/test)",
                )
            queued = False
            try:
                while True:
                    if self._draining:
                        raise self.draining_shed(route)
                    if self._inflight + cost <= self.config.max_concurrency:
                        self._inflight += cost
                        return
                    if not queued:
                        if self._queued + cost > self.config.max_queue:
                            raise self._shed(
                                route, "capacity", 429, "capacity",
                                f"concurrency limit "
                                f"{self.config.max_concurrency} and accept "
                                f"queue {self.config.max_queue} are full",
                            )
                        queued = True
                        self._queued += cost
                    if queue_deadline.expired():
                        raise self._shed(
                            route, "queue_timeout", 429, "queue_timeout",
                            f"queued past "
                            f"{self.config.queue_timeout_s:g}s without a "
                            "slot",
                        )
                    self.check_deadline(deadline)
                    wait = queue_deadline.remaining_s()
                    if deadline is not None:
                        wait = min(wait, deadline.remaining_s())
                    self._cond.wait(timeout=max(0.001, wait))
            finally:
                if queued:
                    self._queued -= cost

    # -- drain --------------------------------------------------------------

    def begin_drain(self) -> bool:
        """Flip the draining flag; returns True the first time only.
        Queued waiters wake and shed with ``draining``."""
        with self._cond:
            if self._draining:
                return False
            self._draining = True
            self._cond.notify_all()
            return True

    def wait_idle(self, timeout: float) -> bool:
        """Block until no request is in flight (or ``timeout``)."""
        with self._cond:
            return self._cond.wait_for(
                lambda: self._inflight == 0 and self._queued == 0,
                timeout=timeout,
            )

    def _count(self, name: str) -> None:
        if self.sink is not None:
            self.sink.count(name)
