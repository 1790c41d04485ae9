"""Deterministic fault injection for the fault-tolerance layer.

:mod:`repro.faults.injector` defines the seeded :class:`FaultInjector`
(worker crash, worker hang, transient error, corrupted result record,
cache-line corruption) that plugs into the measurement loop of
:class:`~repro.autotuner.evaluation.Evaluator` (crash, hang and
corrupt-record in pool workers only; transient on both sides) and into
the writer of :class:`~repro.autotuner.parallel.MeasurementCache`; every
decision is a pure function of ``(seed, fault kind, identity,
attempt)``, so injected failures replay identically across runs and
processes.

:mod:`repro.faults.harness` is the companion stress harness — the
fault-layer sibling of :mod:`repro.observe.stress` — which tunes a real
transform under an injected fault plan and asserts the recovery
invariant: the tuned configuration and history are byte-identical to a
fault-free run (import it directly; it pulls in the autotuner).

:mod:`repro.faults.serve_harness` does the same for the serving stack:
serve-side fault kinds (``conn-drop``, ``slow-handler``, ``shed-storm``,
``store-io-fail``, ``drain-race``) injected into a live daemon, with the
serving invariant — byte-identical response or exactly one well-formed
structured error, never a hang or a corrupt artifact (import it
directly; it pulls in the serve stack, and doubles as the CI chaos
smoke via ``python -m repro.faults.serve_harness``).
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

__all__ = [
    "DEFAULT_HANG_SECONDS",
    "DEFAULT_SEED",
    "KINDS",
    "FaultInjector",
    "FaultRule",
    "FaultSpecError",
    "TransientFault",
]
