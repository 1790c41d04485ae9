"""Background job queue for the serve daemon's tuning requests.

``POST /tune`` must not block the request handler for the minutes a
genetic-tuning run takes, so tune requests enqueue here and run on
daemon worker threads (each of which may itself fan measurements over
the fault-tolerant :class:`~repro.autotuner.evaluation.Evaluator`
process pool).  Jobs move ``queued → running → done | failed``; the
runner's return value becomes ``job.result``, its exception becomes
``job.error``.  All state transitions happen under one condition
variable: :meth:`JobQueue.get` returns plain snapshots (handlers
polling ``GET /jobs/<id>`` never see a torn job) and :meth:`JobQueue.
wait` blocks *event-based* on the condition — no busy-polling.

Resilience hooks:

* **Idempotent enqueue** — ``submit(..., idempotency_key=...)`` returns
  the existing job for a repeated key instead of enqueuing a duplicate,
  so a client that retries a tune request over a flaky connection never
  starts the same tuning run twice.
* **Drain** — :meth:`drain` stops accepting work and cancels
  still-queued jobs (``queued → cancelled``) while the currently
  running job finishes; :meth:`wait_idle` blocks until workers go
  quiet.  ``close()`` without a preceding drain keeps the original
  semantics (queued jobs complete before the sentinel).
"""

from __future__ import annotations

import queue
import threading
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Terminal job states (waiting on a job ends when it reaches one).
TERMINAL_STATES = ("done", "failed", "cancelled")


class QueueDraining(RuntimeError):
    """Raised by ``submit`` once the queue is draining — the serve app
    maps it to a structured 503 shed."""


@dataclass
class Job:
    """One queued unit of background work."""

    job_id: str
    kind: str
    payload: Dict[str, Any]
    state: str = "queued"  # queued | running | done | failed | cancelled
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None

    def snapshot(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "job": self.job_id,
            "kind": self.kind,
            "state": self.state,
        }
        if self.result is not None:
            record["result"] = self.result
        if self.error is not None:
            record["error"] = self.error
        return record


class JobQueue:
    """FIFO background workers over a runner callback.

    ``runner(job)`` executes one job and returns its result dict.  A
    raising runner marks the job ``failed`` with the exception text —
    one bad tune request never kills a worker thread.
    """

    def __init__(
        self, runner: Callable[[Job], Dict[str, Any]], workers: int = 1
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self._runner = runner
        self._cond = threading.Condition()
        self._jobs: Dict[str, Job] = {}
        self._keys: Dict[str, str] = {}  # idempotency key -> job id
        self._queue: "queue.Queue[Optional[str]]" = queue.Queue()
        self._next = 0
        self._running = 0
        self._draining = False
        self._threads: List[threading.Thread] = []
        for index in range(workers):
            thread = threading.Thread(
                target=self._worker, name=f"serve-job-{index}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def submit(
        self,
        kind: str,
        payload: Dict[str, Any],
        idempotency_key: Optional[str] = None,
    ) -> Tuple[str, bool]:
        """Enqueue one job; returns ``(job_id, deduped)``.

        A repeated ``idempotency_key`` returns the original job id with
        ``deduped=True`` and enqueues nothing — the retry contract for
        the non-idempotent ``/tune`` route.
        """
        with self._cond:
            if self._draining:
                raise QueueDraining("job queue is draining")
            if idempotency_key is not None:
                existing = self._keys.get(idempotency_key)
                if existing is not None:
                    return existing, True
            self._next += 1
            job_id = f"j{self._next}"
            self._jobs[job_id] = Job(job_id, kind, dict(payload))
            if idempotency_key is not None:
                self._keys[idempotency_key] = job_id
        self._queue.put(job_id)
        return job_id, False

    def get(self, job_id: str) -> Dict[str, Any]:
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None:
                raise KeyError(f"unknown job {job_id!r}")
            return job.snapshot()

    def jobs(self) -> List[Dict[str, Any]]:
        with self._cond:
            return [
                self._jobs[job_id].snapshot()
                for job_id in sorted(
                    self._jobs, key=lambda j: int(j[1:])
                )
            ]

    def wait(self, job_id: str, timeout: float = 60.0) -> Dict[str, Any]:
        """Block (event-based, no polling) until the job reaches a
        terminal state; raises ``TimeoutError`` past ``timeout``."""
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None:
                raise KeyError(f"unknown job {job_id!r}")
            if not self._cond.wait_for(
                lambda: job.state in TERMINAL_STATES, timeout=timeout
            ):
                raise TimeoutError(f"job {job_id} still {job.state}")
            return job.snapshot()

    # -- drain / shutdown ---------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining

    def drain(self) -> int:
        """Stop accepting jobs and cancel everything still queued; the
        running job (if any) finishes.  Returns the cancel count."""
        cancelled = 0
        with self._cond:
            self._draining = True
            for job in self._jobs.values():
                if job.state == "queued":
                    job.state = "cancelled"
                    job.error = "cancelled: daemon draining"
                    cancelled += 1
            self._cond.notify_all()
        return cancelled

    def wait_idle(self, timeout: float) -> bool:
        """Block until no worker is running a job (or ``timeout``)."""
        with self._cond:
            return self._cond.wait_for(
                lambda: self._running == 0, timeout=timeout
            )

    def close(self) -> None:
        """Stop accepting work and let workers drain their sentinel."""
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join(timeout=5.0)

    # -- worker loop --------------------------------------------------------

    def _worker(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is None:
                return
            with self._cond:
                job = self._jobs[job_id]
                if job.state == "cancelled":
                    continue
                job.state = "running"
                self._running += 1
                self._cond.notify_all()
            try:
                result = self._runner(job)
            except Exception:
                with self._cond:
                    job.state = "failed"
                    job.error = traceback.format_exc(limit=8)
                    self._running -= 1
                    self._cond.notify_all()
            else:
                with self._cond:
                    job.state = "done"
                    job.result = result
                    self._running -= 1
                    self._cond.notify_all()
