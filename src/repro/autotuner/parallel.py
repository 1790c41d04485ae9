"""Parallel candidate evaluation with fault tolerance and a persistent
measurement cache.

Tuning runs are embarrassingly parallel across candidates: §3.3's
genetic loop scores a whole population at one training size, and the
n-ary tunable search probes a known set of values per round.  Because
every measurement is a pure function of ``(seed, configuration
signature, size, trial)`` (see :mod:`repro.autotuner.evaluation`), those
batches can fan out over a process pool and merge back in any order
without changing a single bit of the tuning result — and, for the same
reason, a measurement lost to a crashed or hung worker can simply be
re-run: the retry returns the identical value.

Three pieces:

* :class:`MeasurementCache` — measurements keyed by ``(machine profile,
  workers, trials, seed, signature, size)``, persisted as JSONL so
  repeated ``repro tune`` invocations (and cross-machine sweeps sharing
  one cache file) never repeat a simulation.  Nonviable candidates are
  cached as failures for the same reason.  Loading is crash-safe:
  corrupt or truncated lines (a killed writer, disk damage, schema
  drift) are skipped, counted in ``corrupt_lines``, and quarantined to
  a ``<path>.bad`` sidecar instead of raising.
* :class:`EvaluatorSpec` — a picklable recipe (``"module:callable"`` +
  args) from which each worker process rebuilds its own
  :class:`~repro.autotuner.evaluation.Evaluator`; compiled programs
  hold closures and never cross process boundaries.
* :class:`ParallelEvaluator` — an :class:`Evaluator` with an
  ``evaluate_batch`` entry point: collect a batch's cache misses,
  dispatch them over a ``concurrent.futures`` process pool (or evaluate
  serially when ``jobs == 1`` / no spec is available), and merge results
  in batch order.  ``time()`` still works measurement-at-a-time, so the
  class is a drop-in :class:`~repro.autotuner.tuner.GeneticTuner`
  evaluator.

Fault tolerance (the paper's tuner only works because slow or broken
candidates are culled cheaply; a fault-tolerant measurement loop is the
distributed-system analogue):

* **Deadlines** — with ``measure_timeout`` set, every pool round is
  bounded by an adaptive per-measurement deadline: a multiple
  (``deadline_factor``) of the best wall-clock measurement seen at that
  input size, floored at ``measure_timeout`` seconds.  A measurement
  that misses its deadline on every attempt becomes a cached
  :class:`CandidateFailure` and is culled, mirroring the paper's
  candidate pruning; hung workers are reclaimed by force-killing and
  rebuilding the pool.
* **Retries** — transient worker errors, corrupt result records, and
  crash/timeout casualties are retried up to ``max_retries`` times with
  exponential backoff (``retry_backoff`` base seconds).  Because the
  objective is pure, a retry is always safe.
* **Quarantine** — a signature whose measurement kills
  ``quarantine_after`` consecutive worker processes is quarantined:
  every pending and future measurement of it fails fast as a
  :class:`CandidateFailure` without touching the pool again.
* **Degradation** — after ``degrade_after`` consecutive pool rounds
  that made no progress, the evaluator permanently degrades to
  in-process serial evaluation: slower, but the tuning run completes.
* **Crash-safe persistence** — the cache is flushed (and fsync'd) after
  every batch, so a killed run loses at most one batch of fresh
  measurements; a warm restart with the same cache file re-runs only
  what was lost.

Deterministic fault injection (:mod:`repro.faults`) plugs into the pool
workers and the cache writer via the ``injector`` argument, so every
recovery path above is exercised — reproducibly — in CI.

Determinism: results are merged in submission order (never completion
order), per-task seeds derive from the measurement identity, and the
``candidate`` trace events are emitted exactly as the serial evaluator
emits them — so a tuning run is byte-identical for any ``jobs`` value,
and (with the default at-most-once injection policy) byte-identical
under injected faults as well.

Observability (all optional, via the shared ``TraceSink``): counters
``tuner.pool.dispatches``, ``tuner.pool.batches``,
``tuner.cache.disk_hits``, ``tuner.cache.misses``, plus the recovery
counters ``tuner.pool.timeouts``, ``tuner.pool.retries``,
``tuner.pool.rebuilds``, ``tuner.pool.quarantines``,
``tuner.degraded_serial``, and ``tuner.cache.corrupt_lines``;
histograms ``tuner.pool.batch_size`` and ``tuner.pool.batch_latency_ms``.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import time as _time
from concurrent.futures import ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.compiler.config import ChoiceConfig
from repro.faults import FaultInjector, TransientFault

from repro.autotuner.evaluation import (
    Evaluator,
    Measurement,
    config_signature,
)
from repro.autotuner.tuner import GeneticTuner, TuneResult

#: cache key: (machine name, workers, trials, seed, signature, size)
CacheKey = Tuple[str, int, int, int, str, int]

#: key fields every persisted cache row must carry.
REQUIRED_KEY_FIELDS: Tuple[str, ...] = (
    "machine", "workers", "trials", "seed", "signature", "size",
)


class CandidateFailure(RuntimeError):
    """A candidate configuration failed evaluation (e.g. a recursive
    rule with no base case, a missed measurement deadline, or a
    quarantined worker-killer).  Raised on cached failures so nonviable
    candidates are culled without re-running the failing simulation."""


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

    @staticmethod
    def _key_fields(key: CacheKey) -> Dict[str, Any]:
        machine, workers, trials, seed, signature, size = key
        return {
            "machine": machine,
            "workers": workers,
            "trials": trials,
            "seed": seed,
            "signature": signature,
            "size": size,
        }

    def lookup(self, key: CacheKey) -> Optional[Dict[str, Any]]:
        return self._records.get(key)

    def store(self, key: CacheKey, record: Dict[str, Any]) -> None:
        if key not in self._records:
            self._dirty.append(key)
        self._records[key] = record

    def store_measurement(self, key: CacheKey, m: Measurement) -> None:
        self.store(key, m.to_record())

    def store_failure(self, key: CacheKey, error: str) -> None:
        self.store(key, {"error": error})

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
                row = self._key_fields(key)
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


# -- worker side -------------------------------------------------------------

_WORKER_EVALUATOR: Optional[Evaluator] = None
_WORKER_INJECTOR: Optional[FaultInjector] = None


def _init_worker(
    spec: EvaluatorSpec, injector: Optional[FaultInjector] = None
) -> None:
    global _WORKER_EVALUATOR, _WORKER_INJECTOR
    _WORKER_EVALUATOR = spec.build()
    _WORKER_INJECTOR = injector


def _pool_measure(signature: str, size: int, attempt: int = 0) -> Dict[str, Any]:
    """Measure one (signature, size) in a worker; never raises — errors
    come back as records so the parent can classify, retry, or cache
    the failure.  ``attempt`` feeds the fault injector so injected
    faults are reproducible yet don't re-fire on recovery attempts."""
    evaluator = _WORKER_EVALUATOR
    injector = _WORKER_INJECTOR
    if evaluator is None:  # pragma: no cover - initializer always ran
        return {"error": "worker evaluator was never initialized"}
    identity = f"{signature}|{size}"
    if injector is not None:
        if injector.fires("worker-crash", identity, attempt):
            os._exit(3)
        if injector.fires("worker-hang", identity, attempt):
            _time.sleep(injector.hang_seconds)
        if injector.fires("transient", identity, attempt):
            return {
                "error": "TransientFault: injected transient worker failure",
                "transient": True,
            }
    try:
        config = ChoiceConfig.from_json(signature)
        started = _time.perf_counter()
        m = evaluator.measure(config, size, signature)
        record = m.to_record()
        record["wall_ms"] = (_time.perf_counter() - started) * 1000.0
        if injector is not None and injector.fires(
            "corrupt-record", identity, attempt
        ):
            return {"time": "<corrupt>", "steals": record["steals"]}
        return record
    except Exception as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


def evaluator_from_source(
    source: str,
    transform: str,
    machine_name: str,
    max_size: int = 4096,
    workers: Optional[int] = None,
    trials: int = 1,
    seed: int = 20090615,
) -> Evaluator:
    """Build an evaluator by compiling PetaBricks source text — the spec
    factory behind ``repro tune --jobs N`` (source text is picklable
    where a compiled program is not).  Mirrors the CLI's input policy:
    the transform's ``generator`` declaration when present, uniform
    random inputs otherwise."""
    from repro.autotuner.evaluation import generator_inputs, random_inputs
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
    source: str, transform: str, machine_name: str, max_size: int
) -> EvaluatorSpec:
    """The picklable recipe of :func:`evaluator_from_source`."""
    return EvaluatorSpec.make(
        "repro.autotuner.parallel:evaluator_from_source",
        source,
        transform,
        machine_name,
        max_size=max_size,
    )


def tune_from_spec(
    spec: EvaluatorSpec,
    tuner_kwargs: Mapping[str, Any],
    jobs: int = 1,
    sink=None,
    **evaluator_kwargs: Any,
) -> Tuple[TuneResult, "ParallelEvaluator"]:
    """One :class:`GeneticTuner` run over a :class:`ParallelEvaluator`
    built from ``spec`` — the one wiring behind ``repro tune``, the serve
    daemon's tune jobs and the fault harness.  ``tuner_kwargs`` go to the
    tuner (``refine_passes`` defaults to 0: one bottom-up sweep),
    ``evaluator_kwargs`` (``cache``, ``measure_timeout``, ``injector``,
    ...) to the evaluator.  The evaluator is closed — pool shut down,
    cache flushed — however the run ends, so an interrupted run keeps
    every batch it completed; it is returned beside the result for its
    ``cache``, ``evaluations`` and ``degraded``."""
    evaluator = ParallelEvaluator.from_spec(
        spec, jobs=jobs, sink=sink, **evaluator_kwargs
    )
    try:
        tuner = GeneticTuner(evaluator, **{"refine_passes": 0, **tuner_kwargs})
        return tuner.tune(), evaluator
    finally:
        evaluator.close()


# -- parent side -------------------------------------------------------------


@dataclass(eq=False)
class _PendingItem:
    """One unresolved measurement's recovery state during a batch."""

    signature: str
    size: int
    attempts: int = 0       # dispatches consumed (feeds injector decisions)
    timeouts: int = 0       # deadline misses so far
    strikes: int = 0        # consecutive worker crashes attributed to it
    record: Optional[Dict[str, Any]] = None
    persist: bool = True    # whether the resolution goes to the disk cache

    @property
    def identity(self) -> str:
        return f"{self.signature}|{self.size}"

    def resolve(self, record: Dict[str, Any], persist: bool = True) -> None:
        self.record = record
        self.persist = persist


class ParallelEvaluator(Evaluator):
    """An :class:`Evaluator` that batches measurements over a process
    pool, survives worker crashes/hangs, and remembers results in a
    (optionally persistent) shared cache.

    Drop-in for :class:`~repro.autotuner.tuner.GeneticTuner`: ``time()``
    behaves exactly like the serial evaluator (same values, same
    ``candidate`` events), while ``evaluate_batch()`` lets the tuner
    hand over a whole population / probe set at once.  With ``jobs ==
    1`` (or when no :class:`EvaluatorSpec` is available to rebuild the
    evaluator in workers) batches are evaluated serially in the parent —
    in the identical order, producing identical results.

    Fault-tolerance knobs (see the module docstring for the policy):

    * ``measure_timeout`` — floor (seconds) of the adaptive
      per-measurement deadline; ``None`` disables deadlines.
    * ``deadline_factor`` — the deadline is
      ``max(measure_timeout, deadline_factor * best wall-clock at that
      size)``.
    * ``max_retries`` — bounded retries for transient failures,
      corrupt records, crash casualties, and deadline misses.
    * ``retry_backoff`` — exponential-backoff base (seconds) between
      retry rounds; 0 disables sleeping.
    * ``quarantine_after`` — consecutive worker crashes before a
      signature is quarantined.
    * ``degrade_after`` — consecutive no-progress pool rounds before
      permanently degrading to in-process serial evaluation.
    * ``injector`` — a :class:`repro.faults.FaultInjector` plugged into
      the pool workers and the cache writer (dev/test only).
    """

    def __init__(
        self,
        *args: Any,
        jobs: int = 1,
        cache: Union[MeasurementCache, str, None] = None,
        spec: Optional[EvaluatorSpec] = None,
        measure_timeout: Optional[float] = None,
        deadline_factor: float = 8.0,
        max_retries: int = 3,
        retry_backoff: float = 0.05,
        quarantine_after: int = 3,
        degrade_after: int = 5,
        injector: Optional[FaultInjector] = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(*args, **kwargs)
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if measure_timeout is not None and measure_timeout <= 0:
            raise ValueError("measure_timeout must be positive (or None)")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.jobs = jobs
        self.spec = spec
        self.measure_timeout = measure_timeout
        self.deadline_factor = deadline_factor
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.quarantine_after = quarantine_after
        self.degrade_after = degrade_after
        self.injector = injector
        if isinstance(cache, str):
            cache = MeasurementCache(cache, injector=injector)
        self.cache = cache
        if (
            self.sink is not None
            and cache is not None
            and cache.corrupt_lines
        ):
            self.sink.count("tuner.cache.corrupt_lines", cache.corrupt_lines)
        self._failures: Dict[Tuple[str, int], str] = {}
        self._quarantined: Dict[str, str] = {}
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_builds = 0
        self._consecutive_pool_failures = 0
        self._degraded = False
        self._best_wall: Dict[int, float] = {}

    @classmethod
    def from_spec(
        cls,
        spec: EvaluatorSpec,
        jobs: int = 1,
        cache: Union[MeasurementCache, str, None] = None,
        sink=None,
        **kwargs: Any,
    ) -> "ParallelEvaluator":
        """Build the parent evaluator from the same recipe the workers
        use, guaranteeing parent and workers measure identically.
        Extra keyword arguments (``measure_timeout``, ``max_retries``,
        ``injector``, ...) pass straight through to the constructor."""
        base = spec.build()
        return cls(
            base.program,
            base.transform.name,
            base.input_generator,
            base.machine,
            workers=base.workers,
            trials=base.trials,
            seed=base.seed,
            sink=sink,
            jobs=jobs,
            cache=cache,
            spec=spec,
            **kwargs,
        )

    # -- cache plumbing ----------------------------------------------------

    def _cache_key(self, signature: str, size: int) -> CacheKey:
        return (
            self.machine.name,
            self.workers,
            self.trials,
            self.seed,
            signature,
            size,
        )

    def _install_record(
        self,
        signature: str,
        size: int,
        record: Dict[str, Any],
        fresh: bool,
        persist: bool = True,
    ) -> None:
        """Merge one measurement record (from a worker, the serial batch
        path, or the disk cache) into the in-memory state.  ``fresh``
        records count as evaluations and emit ``candidate`` events; disk
        hits do neither — a warm rerun performs zero fresh evaluations.
        ``persist=False`` keeps a resolution out of the disk cache
        (session-local verdicts like quarantines and exhausted
        transient retries must not poison later runs)."""
        clean = {
            name: record[name]
            for name in ("time", "tasks", "steals", "error")
            if name in record
        }
        if "error" in clean:
            self._failures[(signature, size)] = clean["error"]
            clean = {"error": clean["error"]}
        elif fresh:
            self._record_fresh(
                signature,
                size,
                Measurement(
                    time=clean["time"],
                    tasks=clean["tasks"],
                    steals=clean["steals"],
                ),
            )
        else:
            self._cache[(signature, size)] = clean["time"]
        if fresh and persist and self.cache is not None:
            self.cache.store(self._cache_key(signature, size), clean)

    def _consult_disk(self, signature: str, size: int) -> bool:
        """Pull one measurement from the persistent cache if present."""
        if self.cache is None:
            return False
        record = self.cache.lookup(self._cache_key(signature, size))
        if record is None:
            return False
        self._install_record(signature, size, record, fresh=False)
        if self.sink is not None:
            self.sink.count("tuner.cache.disk_hits")
        return True

    def _count(self, name: str, delta: int = 1) -> None:
        if self.sink is not None and delta:
            self.sink.count(name, delta)

    # -- measurement entry points -------------------------------------------

    def time(self, config: ChoiceConfig, size: int) -> float:
        signature = config_signature(config)
        key = (signature, size)
        if key not in self._cache and key not in self._failures:
            if signature in self._quarantined:
                raise CandidateFailure(self._quarantined[signature])
            self._consult_disk(signature, size)
        if key in self._failures:
            raise CandidateFailure(self._failures[key])
        if key not in self._cache:
            # A single miss is measured in-process: pool dispatch isn't
            # worth one task, and the value is identical by construction.
            try:
                measurement = self.measure(config, size, signature)
            except Exception as exc:
                message = f"{type(exc).__name__}: {exc}"
                self._install_record(
                    signature, size, {"error": message}, fresh=True
                )
                raise CandidateFailure(message) from exc
            self._install_record(
                signature, size, measurement.to_record(), fresh=True
            )
        elif self.sink is not None:
            self.sink.count("tuner.cache_hits")
        return self._cache[key]

    def evaluate_batch(
        self, batch: Sequence[Tuple[ChoiceConfig, int]]
    ) -> None:
        """Measure every ``(config, size)`` pair not already known.

        Misses are dispatched together — over the pool when ``jobs > 1``
        and a spec is available, serially otherwise — and merged in batch
        order, so later ``time()`` calls are pure cache hits regardless
        of worker count, completion order, or how many faults had to be
        recovered along the way.  The persistent cache is flushed after
        every batch, bounding a killed run's data loss to one batch.
        """
        pending: List[_PendingItem] = []
        seen = set()
        for config, size in batch:
            signature = config_signature(config)
            key = (signature, size)
            if key in seen or key in self._cache or key in self._failures:
                continue
            if signature in self._quarantined:
                self._failures[key] = self._quarantined[signature]
                continue
            if self._consult_disk(signature, size):
                continue
            seen.add(key)
            pending.append(_PendingItem(signature, size))

        if self.sink is not None:
            self.sink.count("tuner.pool.batches")
            self.sink.observe("tuner.pool.batch_size", len(pending))
            self.sink.count("tuner.cache.misses", len(pending))
        if not pending:
            return

        started = _time.perf_counter()
        self._evaluate_pending(pending)
        for item in pending:
            self._install_record(
                item.signature,
                item.size,
                item.record,
                fresh=True,
                persist=item.persist,
            )
        if self.sink is not None:
            elapsed_ms = (_time.perf_counter() - started) * 1000.0
            self.sink.observe("tuner.pool.batch_latency_ms", elapsed_ms)
        self.flush_cache()

    # -- the fault-tolerant resolution loop ----------------------------------

    def _evaluate_pending(self, pending: List[_PendingItem]) -> None:
        """Resolve every pending item to a record — measurement or
        failure — surviving crashes, hangs, and transient errors."""
        if self.jobs > 1 and self.spec is not None and not self._degraded:
            self._run_pool_rounds(pending)
        self._run_serial(pending)

    def _deadline_for(self, size: int) -> float:
        """Adaptive per-measurement deadline: a multiple of the best
        wall-clock measurement observed at this size, floored at the
        configured ``measure_timeout``."""
        best = self._best_wall.get(size)
        if best is None:
            return self.measure_timeout
        return max(self.measure_timeout, self.deadline_factor * best)

    def _round_budget(self, items: Sequence[_PendingItem]) -> Optional[float]:
        """Wall-clock budget for one dispatch round: the worst per-item
        deadline times the number of worker waves, plus slack."""
        if self.measure_timeout is None:
            return None
        per_item = max(self._deadline_for(item.size) for item in items)
        waves = math.ceil(len(items) / max(1, self.jobs))
        return per_item * waves + 0.25 * per_item + 0.05

    def _note_wall(self, size: int, wall_ms: Optional[float]) -> None:
        if wall_ms is None or wall_ms <= 0:
            return
        seconds = wall_ms / 1000.0
        best = self._best_wall.get(size)
        if best is None or seconds < best:
            self._best_wall[size] = seconds

    @staticmethod
    def _classify(record: Any) -> Tuple[str, Dict[str, Any]]:
        """Classify a worker result: ``("ok", measurement record)``,
        ``("ok", failure record)`` for deterministic candidate failures,
        or ``("retry", failure record)`` for transient/corrupt results."""
        if isinstance(record, dict) and isinstance(record.get("error"), str):
            if record.get("transient"):
                return "retry", {"error": record["error"]}
            return "ok", {"error": record["error"]}
        try:
            measurement = Measurement.from_record(record)
        except ValueError as exc:
            return "retry", {"error": f"corrupt result record ({exc})"}
        clean = measurement.to_record()
        if isinstance(record, dict) and "wall_ms" in record:
            clean["wall_ms"] = record["wall_ms"]
        return "ok", clean

    def _backoff(self, round_index: int) -> None:
        if self.retry_backoff > 0 and round_index > 0:
            _time.sleep(
                min(2.0, self.retry_backoff * (2 ** (round_index - 1)))
            )

    def _quarantine(self, signature: str, reason: str) -> None:
        message = (
            f"quarantined: measurement crashed {self.quarantine_after} "
            f"consecutive workers (last: {reason})"
        )
        self._quarantined[signature] = message
        self._count("tuner.pool.quarantines")

    def _degrade(self) -> None:
        self._degraded = True
        self._kill_pool()
        self._count("tuner.degraded_serial")

    def _run_pool_rounds(self, pending: Sequence[_PendingItem]) -> None:
        """Dispatch unresolved items over the pool in rounds until every
        item is resolved, the pool is abandoned (degradation), or
        retries are exhausted."""
        round_index = 0
        while True:
            unresolved = [item for item in pending if item.record is None]
            if not unresolved or self._degraded:
                return
            self._backoff(round_index)
            if round_index > 0:
                self._count("tuner.pool.retries", len(unresolved))
            futures: Dict[Any, _PendingItem] = {}
            try:
                pool = self._ensure_pool()
                for item in unresolved:
                    future = pool.submit(
                        _pool_measure, item.signature, item.size, item.attempts
                    )
                    futures[future] = item
            except Exception:
                # The pool itself is unusable (failed to spawn, broke on
                # submit); already-submitted futures still resolve below.
                self._kill_pool()
            self._count("tuner.pool.dispatches", len(futures))
            outcomes = self._collect_round(futures)
            self._settle_round(unresolved, outcomes)
            round_index += 1

    def _collect_round(
        self, futures: Dict[Any, _PendingItem]
    ) -> Dict[_PendingItem, Tuple[str, Any]]:
        """Wait for one round's futures under the round budget.

        Returns item -> ("ok" | "retry", record) | ("crash", message) |
        ("timeout", None).  Items whose submit failed are absent and
        count as a crash-less no-op (they retry next round).
        """
        outcomes: Dict[_PendingItem, Tuple[str, Any]] = {}
        if not futures:
            return outcomes
        budget = self._round_budget(list(futures.values()))
        started = _time.monotonic()
        remaining = set(futures)
        while remaining:
            timeout = None
            if budget is not None:
                timeout = budget - (_time.monotonic() - started)
                if timeout <= 0:
                    break
            done, remaining = wait(remaining, timeout=timeout)
            for future in done:
                item = futures[future]
                try:
                    record = future.result()
                except Exception as exc:
                    # BrokenProcessPool and friends: the worker (or the
                    # whole pool) died under this measurement.
                    outcomes[item] = (
                        "crash", f"{type(exc).__name__}: {exc}"
                    )
                else:
                    outcomes[item] = self._classify(record)
        for future in remaining:
            outcomes[futures[future]] = ("timeout", None)
        return outcomes

    def _settle_round(
        self,
        dispatched: Sequence[_PendingItem],
        outcomes: Dict[_PendingItem, Tuple[str, Any]],
    ) -> None:
        """Apply one round's outcomes: resolve successes, account
        retries/timeouts/strikes, quarantine repeat killers, reclaim a
        damaged pool, and degrade to serial if the pool keeps failing."""
        progressed = False
        pool_damaged = False
        for item in dispatched:
            outcome, payload = outcomes.get(item, (None, None))
            if outcome == "ok":
                progressed = True
                item.strikes = 0
                self._note_wall(item.size, payload.pop("wall_ms", None))
                item.resolve(payload)
            elif outcome == "retry":
                item.attempts += 1
                if item.attempts > self.max_retries:
                    item.resolve(payload, persist=False)
            elif outcome == "crash":
                pool_damaged = True
                item.attempts += 1
                item.strikes += 1
                if item.strikes >= self.quarantine_after:
                    self._quarantine(item.signature, payload)
            elif outcome == "timeout":
                pool_damaged = True
                item.attempts += 1
                item.timeouts += 1
                self._count("tuner.pool.timeouts")
                if item.timeouts > self.max_retries:
                    item.resolve(
                        {
                            "error": (
                                "MeasurementTimeout: exceeded the "
                                f"measurement deadline on {item.timeouts} "
                                "consecutive attempts"
                            )
                        }
                    )
        # Quarantine verdicts apply to every unresolved measurement of
        # the signature, in this batch and all later ones.
        for item in dispatched:
            if item.record is None and item.signature in self._quarantined:
                item.resolve(
                    {"error": self._quarantined[item.signature]},
                    persist=False,
                )
        if pool_damaged:
            # Hung workers hold pool slots and broken pools reject
            # submits: reclaim by force and rebuild lazily next round.
            self._kill_pool()
        if progressed:
            self._consecutive_pool_failures = 0
        elif pool_damaged or not outcomes:
            self._consecutive_pool_failures += 1
            if self._consecutive_pool_failures >= self.degrade_after:
                self._degrade()

    def _run_serial(self, pending: Sequence[_PendingItem]) -> None:
        """Resolve remaining items in-process (the ``jobs == 1`` path and
        the degraded-mode fallback).  Only ``transient`` faults inject
        here: crash/hang/corrupt-record model process-boundary failures,
        and an in-process crash could not be recovered from anyway."""
        for item in pending:
            while item.record is None:
                if item.signature in self._quarantined:
                    item.resolve(
                        {"error": self._quarantined[item.signature]},
                        persist=False,
                    )
                    break
                if self.injector is not None and self.injector.fires(
                    "transient", item.identity, item.attempts
                ):
                    item.attempts += 1
                    self._count("tuner.pool.retries")
                    if item.attempts > self.max_retries:
                        item.resolve(
                            {
                                "error": (
                                    "TransientFault: injected transient "
                                    "failure persisted through "
                                    f"{item.attempts} attempts"
                                )
                            },
                            persist=False,
                        )
                        break
                    self._backoff(item.attempts)
                    continue
                try:
                    measurement = self.measure(
                        ChoiceConfig.from_json(item.signature),
                        item.size,
                        item.signature,
                    )
                except TransientFault as exc:
                    item.attempts += 1
                    self._count("tuner.pool.retries")
                    if item.attempts > self.max_retries:
                        item.resolve(
                            {"error": f"TransientFault: {exc}"},
                            persist=False,
                        )
                        break
                    self._backoff(item.attempts)
                except Exception as exc:
                    item.resolve({"error": f"{type(exc).__name__}: {exc}"})
                else:
                    item.resolve(measurement.to_record())

    # -- lifecycle ----------------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_init_worker,
                initargs=(self.spec, self.injector),
            )
            self._pool_builds += 1
            if self._pool_builds > 1:
                self._count("tuner.pool.rebuilds")
        return self._pool

    def _kill_pool(self) -> None:
        """Force-reclaim the pool: cancel queued work, terminate worker
        processes (a hung worker never returns on its own), and drop the
        executor so the next round rebuilds from scratch."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        process_map = getattr(pool, "_processes", None) or {}
        processes = list(process_map.values())
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - shutdown of a broken pool
            pass
        for process in processes:
            try:
                if process.is_alive():
                    process.terminate()
            except Exception:  # pragma: no cover - already-dead process
                pass
        for process in processes:
            try:
                process.join(timeout=1.0)
            except Exception:  # pragma: no cover - already-dead process
                pass

    @property
    def degraded(self) -> bool:
        """True once the evaluator has permanently fallen back to
        in-process serial evaluation."""
        return self._degraded

    @property
    def quarantined_signatures(self) -> Dict[str, str]:
        """Signatures barred from the pool (signature -> reason)."""
        return dict(self._quarantined)

    def flush_cache(self) -> int:
        """Persist newly added cache records; returns how many."""
        if self.cache is None:
            return 0
        return self.cache.flush()

    def close(self) -> None:
        """Shut the pool down and persist the cache.  Safe to call on a
        broken/degraded evaluator and after an exception mid-tuning —
        the cache flush runs even if pool shutdown fails."""
        pool, self._pool = self._pool, None
        try:
            if pool is not None:
                pool.shutdown(wait=True)
        finally:
            self.flush_cache()

    def __enter__(self) -> "ParallelEvaluator":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
