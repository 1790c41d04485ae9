"""What crosses a process or a run boundary: the picklable evaluator
recipe, the persistent measurement cache, and the one tuning wiring.

Tuning runs are embarrassingly parallel across candidates: §3.3's
genetic loop scores a whole population at one training size, and the
n-ary tunable search probes a known set of values per round.  Because
every measurement is a pure function of ``(seed, configuration
signature, size, trial)``, the one evaluator
(:class:`~repro.autotuner.evaluation.Evaluator`, which owns the
measurement loop and its fault tolerance) can fan those batches out over
a process pool, and keep what it measured across runs, without changing
a single bit of the tuning result.  This module holds the pieces it
needs for that:

* :class:`EvaluatorSpec` — a picklable recipe (``"module:callable"`` +
  args) from which each worker process rebuilds its own evaluator;
  compiled programs hold closures and never cross process boundaries.
* :class:`MeasurementCache` — measurements keyed by ``(machine profile,
  workers, trials, seed, signature, size)``, persisted as JSONL so
  repeated ``repro tune`` invocations (and cross-machine sweeps sharing
  one cache file) never repeat a simulation.  Nonviable candidates are
  cached as failures for the same reason.  Loading is crash-safe:
  corrupt or truncated lines (a killed writer, disk damage, schema
  drift) are skipped, counted in ``corrupt_lines``, and quarantined to
  a ``<path>.bad`` sidecar instead of raising.
* :func:`tune_from_spec` — one :class:`GeneticTuner` run over an
  evaluator built from a spec: ``repro tune``, the serve daemon's tune
  jobs and the fault harness all tune through it.
"""

from __future__ import annotations

import importlib
import json
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.faults import FaultInjector

from repro.autotuner.evaluation import (
    Evaluator,
    Measurement,
    generator_inputs,
    random_inputs,
)
from repro.autotuner.tuner import GeneticTuner, TuneResult

#: cache key: (machine name, workers, trials, seed, signature, size)
CacheKey = Tuple[str, int, int, int, str, int]

#: key fields every persisted cache row must carry, in key order.
REQUIRED_KEY_FIELDS: Tuple[str, ...] = (
    "machine", "workers", "trials", "seed", "signature", "size",
)


@dataclass(frozen=True)
class EvaluatorSpec:
    """A picklable recipe for building an :class:`Evaluator` in a worker.

    ``factory`` is a ``"package.module:callable"`` reference resolved by
    import, so only strings and plain data cross the process boundary;
    ``args``/``kwargs`` must themselves be picklable.  The callable must
    return an :class:`Evaluator` (workers force ``sink=None`` — tracing
    belongs to the parent).
    """

    factory: str
    args: Tuple[Any, ...] = ()
    kwargs: Tuple[Tuple[str, Any], ...] = ()

    @staticmethod
    def make(factory: str, *args: Any, **kwargs: Any) -> "EvaluatorSpec":
        return EvaluatorSpec(
            factory=factory, args=tuple(args), kwargs=tuple(sorted(kwargs.items()))
        )

    def build(self) -> Evaluator:
        module_name, _, attr = self.factory.partition(":")
        if not attr:
            raise ValueError(
                f"spec factory {self.factory!r} must be 'module:callable'"
            )
        module = importlib.import_module(module_name)
        factory = getattr(module, attr)
        evaluator = factory(*self.args, **dict(self.kwargs))
        if not isinstance(evaluator, Evaluator):
            raise TypeError(
                f"spec factory {self.factory!r} returned "
                f"{type(evaluator).__name__}, not an Evaluator"
            )
        evaluator.sink = None
        return evaluator


class MeasurementCache:
    """Measurements keyed by the full measurement identity, with
    crash-safe JSONL persistence.

    One record per line::

        {"machine": "xeon8", "workers": 8, "trials": 1, "seed": 20090615,
         "signature": "{...config json...}", "size": 256,
         "time": 1234.5, "tasks": 17, "steals": 3}

    Failed candidates carry ``"error"`` instead of the result fields.
    ``load()`` tolerates duplicate keys (last record wins) so several
    invocations may append to one file; ``flush()`` appends (and
    fsyncs) only the records added since the last flush.

    ``load()`` never raises on damaged content: lines that are not
    valid JSON, rows missing required key fields, and rows whose result
    fields fail validation are skipped, counted in ``corrupt_lines``,
    and appended verbatim to a ``<path>.bad`` sidecar for post-mortem —
    a truncated line from a killed run costs one measurement, not the
    whole cache.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        injector: Optional[FaultInjector] = None,
    ) -> None:
        self.path = path
        #: dev/test-only fault injection hook (``cache-corrupt`` faults
        #: garble flushed lines the way a killed writer does).
        self.injector = injector
        #: damaged lines skipped (and sidecar'd) across all loads.
        self.corrupt_lines = 0
        self._records: Dict[CacheKey, Dict[str, Any]] = {}
        self._dirty: List[CacheKey] = []
        if path is not None and os.path.exists(path):
            self.load(path)

    def __len__(self) -> int:
        return len(self._records)

    def lookup(self, key: CacheKey) -> Optional[Dict[str, Any]]:
        return self._records.get(key)

    def store(self, key: CacheKey, record: Dict[str, Any]) -> None:
        if key not in self._records:
            self._dirty.append(key)
        self._records[key] = record

    @staticmethod
    def _parse_row(line: str) -> Optional[Tuple[CacheKey, Dict[str, Any]]]:
        """One validated ``(key, record)`` from a JSONL line, or ``None``
        if the line is damaged (bad JSON, missing/mistyped key fields,
        invalid result fields)."""
        try:
            row = json.loads(line)
        except ValueError:
            return None
        if not isinstance(row, dict):
            return None
        try:
            if not isinstance(row["machine"], str) or not isinstance(
                row["signature"], str
            ):
                return None
            key: CacheKey = (
                row["machine"],
                int(row["workers"]),
                int(row["trials"]),
                int(row["seed"]),
                row["signature"],
                int(row["size"]),
            )
        except (KeyError, TypeError, ValueError):
            return None
        if isinstance(row.get("error"), str):
            return key, {"error": row["error"]}
        try:
            return key, Measurement.from_record(row).to_record()
        except ValueError:
            return None

    def load(self, path: str) -> int:
        """Merge records from ``path``; returns how many lines were read.

        Never raises on damaged lines — they are counted, skipped, and
        quarantined to ``path + ".bad"``.
        """
        lines = 0
        bad: List[str] = []
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                lines += 1
                parsed = self._parse_row(line)
                if parsed is None:
                    bad.append(line)
                    continue
                key, record = parsed
                self._records[key] = record
        if bad:
            self.corrupt_lines += len(bad)
            with open(path + ".bad", "a", encoding="utf-8") as sidecar:
                for line in bad:
                    sidecar.write(line + "\n")
        return lines

    def flush(self, path: Optional[str] = None) -> int:
        """Append (and fsync) records added since the last flush;
        returns the count.  Called after every batch so a killed run
        loses at most the batch in flight."""
        path = path if path is not None else self.path
        if path is None or not self._dirty:
            count = len(self._dirty)
            self._dirty.clear()
            return count
        with open(path, "a", encoding="utf-8") as handle:
            for key in self._dirty:
                row: Dict[str, Any] = dict(zip(REQUIRED_KEY_FIELDS, key))
                row.update(self._records[key])
                line = json.dumps(row, sort_keys=True)
                if self.injector is not None and self.injector.fires(
                    "cache-corrupt", line
                ):
                    line = self.injector.corrupt_line(line)
                handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        count = len(self._dirty)
        self._dirty.clear()
        return count


def evaluator_from_source(
    source: str,
    transform: str,
    machine_name: str,
    workers: Optional[int] = None,
    trials: int = 1,
    seed: int = 20090615,
) -> Evaluator:
    """Build an evaluator by compiling PetaBricks source text — the spec
    factory behind ``repro tune --jobs N`` (source text is picklable
    where a compiled program is not).  Mirrors the CLI's input policy:
    the transform's ``generator`` declaration when present, uniform
    random inputs otherwise."""
    from repro.compiler import compile_program
    from repro.runtime.machine import MACHINES

    program = compile_program(source)
    compiled = program.transform(transform)
    if compiled.ir.generator:
        inputs = generator_inputs(program, transform)
    else:
        inputs = random_inputs(program, transform)
    return Evaluator(
        program,
        transform,
        inputs,
        MACHINES[machine_name],
        workers=workers,
        trials=trials,
        seed=seed,
    )


def source_spec(
    source: str, transform: str, machine_name: str
) -> EvaluatorSpec:
    """The picklable recipe of :func:`evaluator_from_source`."""
    return EvaluatorSpec.make(
        "repro.autotuner.parallel:evaluator_from_source",
        source,
        transform,
        machine_name,
    )


def tune_from_spec(
    spec: EvaluatorSpec,
    tuner_kwargs: Mapping[str, Any],
    jobs: int = 1,
    sink=None,
    cache: Optional[str] = None,
    **evaluator_kwargs: Any,
) -> Tuple[TuneResult, Evaluator]:
    """One :class:`GeneticTuner` run over an :class:`Evaluator` built
    from ``spec`` — the one wiring behind ``repro tune``, the serve
    daemon's tune jobs and the fault harness.  ``tuner_kwargs`` go to the
    tuner (``refine_passes`` defaults to 0: one bottom-up sweep),
    ``cache`` names a :class:`MeasurementCache` file, and
    ``evaluator_kwargs`` (``measure_timeout``, ``injector``, ...) go to
    the evaluator.  The evaluator is closed — pool shut down, cache
    flushed — however the run ends, so an interrupted run keeps every
    batch it completed; it is returned beside the result for its
    ``cache``, ``evaluations`` and ``degraded``."""
    evaluator = Evaluator.from_spec(
        spec,
        jobs=jobs,
        sink=sink,
        cache=None if cache is None else MeasurementCache(
            cache, injector=evaluator_kwargs.get("injector")
        ),
        **evaluator_kwargs,
    )
    try:
        tuner = GeneticTuner(evaluator, **{"refine_passes": 0, **tuner_kwargs})
        return tuner.tune(), evaluator
    finally:
        evaluator.close()
