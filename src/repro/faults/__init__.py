"""Deterministic fault injection and the recovery rules it exercises.

:mod:`repro.faults.recovery` is the one home of the rules the tuner and
the daemon share: :func:`stable_hash` (the seeded blake2b behind
measurement seeds, fault decisions and retry jitter),
:class:`RetryPolicy` (capped exponential backoff) and :class:`Deadline`
(a monotonic budget).

:mod:`repro.faults.injector` defines the seeded :class:`FaultInjector`
(worker crash, worker hang, transient error, corrupted result record,
cache-line corruption, and the serve-side kinds) that plugs into the
measurement loop of :class:`~repro.autotuner.evaluation.Evaluator`, the
writer of :class:`~repro.autotuner.parallel.MeasurementCache` and the
serve daemon; every decision is a pure function of ``(seed, fault kind,
identity, attempt)``, so injected failures replay identically across
runs and processes.

:mod:`repro.faults.harness` is the chaos harness — the sibling of
:mod:`repro.observe.stress` — with one ``sweep`` over injector seeds
and two invariants: tuning under faults is byte-identical to a
fault-free run, and a faulted daemon answers every request with the
fault-free bytes or exactly one structured error (import it directly;
it pulls in the autotuner and the serve stack).  ``python -m pytest
tests/test_faults.py tests/test_serve_chaos.py`` runs the drills.
"""

from repro.faults.injector import (
    DEFAULT_HANG_SECONDS,
    DEFAULT_SEED,
    KINDS,
    FaultInjector,
    FaultRule,
    FaultSpecError,
    TransientFault,
)
from repro.faults.recovery import (
    Deadline,
    DeadlineExceeded,
    RetryPolicy,
    stable_hash,
)

__all__ = [
    "DEFAULT_HANG_SECONDS",
    "DEFAULT_SEED",
    "KINDS",
    "Deadline",
    "DeadlineExceeded",
    "FaultInjector",
    "FaultRule",
    "FaultSpecError",
    "RetryPolicy",
    "TransientFault",
    "stable_hash",
]
