"""Tuning-as-a-service (``repro serve``): the compile-and-serve daemon.

The paper's model is compile-once, tune-per-machine, run-many; this
package makes that resident.  A long-lived daemon compiles each program
once, keeps hot :class:`~repro.compiler.codegen.CompiledTransform`\\ s
and tuned :class:`~repro.compiler.config.ChoiceConfig`\\ s in a
versioned in-memory registry keyed by ``(program blake2b hash, machine
profile, input-size bucket)``, and answers run / batch / tune / check
requests over an HTTP/JSON API (no dependencies), with an on-disk
artifact store behind it for restart recovery.

* :mod:`repro.serve.registry` — the versioned registry (O(1) lock-free
  hot-path lookup, atomic version bumps).
* :mod:`repro.serve.store` — the durable artifact store (atomic writes,
  corrupt-artifact-tolerant recovery).
* :mod:`repro.serve.app` — endpoint logic, transport-independent.
* :mod:`repro.serve.resilience` — admission control (weighted
  concurrency limit + bounded accept queue), request deadline budgets
  over HTTP, structured load shedding and drain state (``Deadline`` and
  ``RetryPolicy``, re-exported here, live in :mod:`repro.faults`).
* :mod:`repro.serve.jobs` — background workers for tuning requests
  (event-based waits, idempotent enqueue, drain-aware).
* :mod:`repro.serve.transport` — all the HTTP/1.1 there is: one head
  reader and one single-call message writer, shared by both sides.
* :mod:`repro.serve.daemon` — the HTTP front end (liveness vs
  readiness probes, graceful ``/shutdown`` drain, Retry-After headers,
  structured refusals, dropped-connection tolerance).
* :mod:`repro.serve.client` — the thin client behind ``repro client``
  (one kept-alive connection per thread, bounded retries with
  deterministic backoff, Retry-After honoring, idempotency keys for
  ``/tune``).
* :mod:`repro.serve.records` — the canonical result records shared with
  ``repro batch`` (bit-parity between served and direct execution), the
  structured error-body shape, and the wire codec: arrays travel out of
  band as the float64 blobs of a frame behind the JSON.
"""

from repro.faults import Deadline, DeadlineExceeded, RetryPolicy
from repro.serve.app import ServeApp, ServeError, ShedError
from repro.serve.client import (
    IDEMPOTENT_POSTS,
    ServeClient,
    ServeClientError,
)
from repro.serve.daemon import DEFAULT_PORT, ServeDaemon
from repro.serve.jobs import Job, JobQueue, QueueDraining
from repro.serve.records import error_body, malformed_record, result_record
from repro.serve.resilience import AdmissionController, ResilienceConfig
from repro.serve.registry import (
    ANY_BUCKET,
    ConfigEntry,
    ServeRegistry,
    bucket_for,
    program_digest,
    size_bucket,
)
from repro.serve.store import ArtifactStore

__all__ = [
    "ANY_BUCKET",
    "AdmissionController",
    "ArtifactStore",
    "ConfigEntry",
    "DEFAULT_PORT",
    "Deadline",
    "DeadlineExceeded",
    "IDEMPOTENT_POSTS",
    "Job",
    "JobQueue",
    "QueueDraining",
    "ResilienceConfig",
    "RetryPolicy",
    "ServeApp",
    "ServeClient",
    "ServeClientError",
    "ServeDaemon",
    "ServeError",
    "ServeRegistry",
    "ShedError",
    "bucket_for",
    "error_body",
    "malformed_record",
    "program_digest",
    "result_record",
    "size_bucket",
]
