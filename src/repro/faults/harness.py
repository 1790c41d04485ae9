"""Stress harness for the fault-tolerance layer.

The sibling of :mod:`repro.observe.stress`: where that harness throws
seeded random task graphs at the scheduler and asserts its theoretical
invariants, this one throws seeded fault plans at the parallel tuning
loop and asserts the recovery invariant that makes fault tolerance
trustworthy:

    **a tuning run under injected faults produces a tuned configuration
    and history byte-identical to a fault-free run with the same seed.**

That holds because every measurement is a pure function of its identity
(retries always reproduce the lost value) and because the injector's
default at-most-once policy guarantees a bounded number of recovery
attempts suffices.  :func:`check_fault_tolerance` verifies one fault
plan; :func:`fault_sweep` re-verifies it under many injector seeds, the
way the scheduler harness sweeps graph seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.autotuner.parallel import EvaluatorSpec, tune_from_spec
from repro.autotuner.tuner import TuneResult
from repro.faults.injector import FaultInjector
from repro.observe.trace import TraceSink

#: GeneticTuner settings for a small-but-real tuning run: several
#: generations, real mutation and tunable search, seconds not minutes.
DEFAULT_TUNER_KWARGS: Dict[str, Any] = {
    "min_size": 16,
    "max_size": 64,
    "population_size": 4,
    "tunable_rounds": 1,
    "refine_passes": 0,
}


@dataclass
class FaultToleranceReport:
    """What one :func:`check_fault_tolerance` run observed."""

    baseline: TuneResult
    faulty: TuneResult
    identical: bool
    counters: Dict[str, int]
    degraded: bool

    def recovery_counter(self, name: str) -> int:
        return self.counters.get(name, 0)


def _history_rows(result: TuneResult) -> List[tuple]:
    return [
        (log.size, log.best_time, log.best_lineage, log.population,
         log.evaluated)
        for log in result.history
    ]


def check_fault_tolerance(
    spec: EvaluatorSpec,
    inject: str,
    jobs: int = 2,
    measure_timeout: float = 0.5,
    max_retries: int = 3,
    tuner_kwargs: Optional[Dict[str, Any]] = None,
    **evaluator_kwargs: Any,
) -> FaultToleranceReport:
    """Tune once fault-free and once under ``inject``; assert parity.

    Raises ``AssertionError`` if the faulty run's tuned configuration or
    generation history differs from the baseline; returns the report
    (including the recovery counters the faulty run emitted) on success.
    """
    tuner_kwargs = dict(DEFAULT_TUNER_KWARGS, **(tuner_kwargs or {}))
    baseline, _ = tune_from_spec(spec, tuner_kwargs)
    sink = TraceSink(capture_events=False)
    faulty, evaluator = tune_from_spec(
        spec,
        tuner_kwargs,
        jobs=jobs,
        sink=sink,
        measure_timeout=measure_timeout,
        max_retries=max_retries,
        injector=FaultInjector.parse(inject),
        **evaluator_kwargs,
    )
    identical = (
        faulty.config.to_json() == baseline.config.to_json()
        and faulty.best_time == baseline.best_time
        and _history_rows(faulty) == _history_rows(baseline)
    )
    assert identical, (
        f"tuning under injected faults {inject!r} diverged from the "
        f"fault-free run: {faulty.config.to_json()} != "
        f"{baseline.config.to_json()}"
    )
    return FaultToleranceReport(
        baseline=baseline,
        faulty=faulty,
        identical=identical,
        counters=dict(sink.counters),
        degraded=evaluator.degraded,
    )


def fault_sweep(
    spec: EvaluatorSpec,
    inject: str,
    seeds: Sequence[int],
    jobs: int = 2,
    **kwargs: Any,
) -> List[FaultToleranceReport]:
    """Re-verify ``inject`` under many injector seeds (``seed=N`` is
    appended to the spec per run), so the parity invariant is checked
    across many distinct crash/hang/retry interleavings — the
    fault-layer analogue of the scheduler harness's seed sweep."""
    reports = []
    for seed in seeds:
        reports.append(
            check_fault_tolerance(
                spec, f"{inject},seed={seed}", jobs=jobs, **kwargs
            )
        )
    return reports
