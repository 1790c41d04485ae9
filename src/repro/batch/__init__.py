"""Batched many-small-problems execution (``repro.batch``).

Production traffic for a PetaBricks-style system is not one big matmul
— it is streams of tiny heterogeneous requests, a grain at which
per-call planning amortizes badly.  This package turns the library
into something a request firehose can hit:

* :mod:`repro.batch.request` — requests and results.  A bucket is a
  run plan: same program + transform + the transform's plan key
  (config content, exact shapes, sizes) → one bucket, one
  ``CompiledTransform.plan``.
* :mod:`repro.batch.stacked` — the stacked execution path: a bucket
  runs as batched NumPy steps over a leading request axis, planned by
  the batch-axis extension of :mod:`repro.engine_fast.vectorize`.
* :mod:`repro.batch.engine` — :class:`BatchEngine` with the async
  ``submit()``/``gather()`` API, per-request error isolation, serial
  fallback for non-stackable work, and throughput counters.

The ``repro batch`` CLI subcommand feeds a JSONL request stream into a
:class:`BatchEngine`; the PB503 diagnostic (``repro check``) reports
per-transform stackability via :func:`~repro.batch.stacked.batch_eligibility`.
"""

from repro.batch.engine import BatchEngine
from repro.batch.request import BatchRequest, BatchResult
from repro.batch.stacked import (
    batch_eligibility,
    plan_stacked,
    run_stacked,
)

__all__ = [
    "BatchEngine",
    "BatchRequest",
    "BatchResult",
    "batch_eligibility",
    "plan_stacked",
    "run_stacked",
]
