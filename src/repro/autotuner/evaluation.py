"""The autotuner's objective function and the one loop that measures it.

``Evaluator.time(config, size)`` executes the target transform on a
generated input of the requested size, records the task graph, and
simulates it on the target machine with the work-stealing scheduler.
Autotuning is therefore performed "on the target system" exactly as in
the paper — here the target system is a simulated architecture profile,
which keeps the objective deterministic and lets the benchmark suite
retune for Mobile/Xeon/Niagara without the hardware.

Each measurement is averaged over ``trials`` generated inputs and is a
pure function of ``(seed, configuration signature, size, trial)``: both
the input data and the scheduler's victim-selection RNG are derived from
that tuple alone, never from evaluator state.  So measurements are
order-independent — interleaved, repeated, reordered, or fanned out
across worker processes they yield identical values — and one lost to a
crashed or hung worker is simply re-run.  The inputs of a ``(size,
trial)`` pair are generated once per evaluator and shared by every
configuration timed on them, as read-only arrays: a candidate that
writes into its input raises instead of corrupting the next one.

In memory a configuration is identified by :meth:`ChoiceConfig.key`
(the ``(key, size)`` pairs of ``_times``, ``_failures`` and a batch's
pending set; the tuner's dedupe too).  Its JSON ``signature``
(:func:`config_signature`) is written only for a pair that memory does
not know: it keys the disk cache and quarantine, seeds the scheduler
(:func:`measurement_seed`), travels to pool workers and names the
configuration in the ``candidate`` event, so all of those are the same
bytes whatever the in-memory identity.

Every miss resolves through one entry, :meth:`Evaluator.evaluate_batch`
(``time()`` is a one-pair call of it).  It consults memory, recorded
failures, quarantine and the persistent
:class:`~repro.autotuner.parallel.MeasurementCache`, then measures the
rest in rounds: in process through ``self.measure`` when ``jobs == 1``,
there is no :class:`~repro.autotuner.parallel.EvaluatorSpec`, or the
evaluator has degraded; otherwise over a process pool
whose workers rebuild the evaluator from the spec.  Results merge in
batch order, so a tuning run is byte-identical for any ``jobs``.  One
classify/settle pair decides for both places (the paper's tuner works
because slow or broken candidates are culled cheaply):

* **Failures** — a configuration whose measurement raises (a recursive
  rule with no base case) becomes a :class:`CandidateFailure`, recorded
  and persisted like a time, so it is never simulated twice.
* **Deadlines** — with ``measure_timeout`` set, a pool round is bounded
  by a per-measurement deadline of ``DEADLINE_FACTOR`` times the best
  wall clock seen at that size, floored at ``measure_timeout``.  Missing
  it ``max_retries + 1`` times is a failure; hung workers are killed and
  the pool rebuilt.
* **Retries** — transient errors, corrupt result records and crash
  casualties are retried up to ``max_retries`` times, each round backing
  off by the :class:`~repro.faults.RetryPolicy` ``RETRY_BACKOFF``.
* **Quarantine** — a signature that kills ``QUARANTINE_AFTER``
  consecutive workers fails fast from then on (never persisted).
* **Degradation** — after ``DEGRADE_AFTER`` consecutive no-progress pool
  rounds the evaluator measures in process for good.

Deterministic fault injection (:mod:`repro.faults`) plugs in through
``injector``: crash, hang and corrupt-record faults fire in pool workers
only, transient faults on both sides.  Counters (via the optional
``TraceSink``): ``tuner.evaluations``, ``tuner.cache_hits`` (pairs known
before the call), ``tuner.cache.misses``, ``tuner.cache.disk_hits``,
``tuner.pool.batches``, ``tuner.pool.dispatches`` and the recovery
counters ``tuner.pool.timeouts``, ``.retries``, ``.rebuilds``,
``.quarantines``, ``tuner.degraded_serial``, ``tuner.cache.corrupt_lines``;
histograms ``tuner.pool.batch_size`` and ``tuner.pool.batch_latency_ms``.
"""

from __future__ import annotations

import math
import os
import random
import time as _time
from concurrent.futures import ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Sequence,
    Tuple, Union,
)

import numpy as np

from repro.compiler.codegen import CompiledProgram, CompiledTransform, RunResult
from repro.compiler.config import ChoiceConfig
from repro.faults import (
    Deadline, FaultInjector, RetryPolicy, TransientFault, stable_hash,
)
from repro.runtime.machine import Machine
from repro.runtime.scheduler import ScheduleResult, WorkStealingScheduler

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.autotuner.parallel import EvaluatorSpec, MeasurementCache
    from repro.observe.trace import TraceSink

#: Builds inputs for one training size: (size, rng) -> inputs for run().
InputGenerator = Callable[[int, random.Random], object]

#: A pool measurement's deadline: this multiple of the best wall clock
#: seen at its size, floored at ``measure_timeout``.
DEADLINE_FACTOR = 8.0
#: The backoff between retry rounds: 0.05 s doubling, capped at 2 s.
RETRY_BACKOFF = RetryPolicy(backoff_s=0.05, max_backoff_s=2.0, jitter=0.0)
#: Consecutive worker crashes that quarantine a signature.
QUARANTINE_AFTER = 3
#: Consecutive no-progress pool rounds before measuring in process.
DEGRADE_AFTER = 5


def config_signature(config: ChoiceConfig) -> str:
    """A canonical string identifying a configuration's behaviour."""
    return config.to_json()


def measurement_seed(seed: int, signature: str, size: int, trial: int) -> int:
    """The scheduler seed for one measurement.

    A :func:`~repro.faults.stable_hash` of ``(seed, size, trial,
    signature)``, so every measurement draws its scheduler RNG from its
    identity alone.  This is what makes measurements order-independent
    and safe to fan out across processes.
    """
    return stable_hash(seed, size, trial, signature)


class CandidateFailure(RuntimeError):
    """A candidate configuration failed evaluation (e.g. a recursive
    rule with no base case, a missed measurement deadline, or a
    quarantined worker-killer).  Recorded once, so nonviable candidates
    are culled without re-running the failing simulation."""


@dataclass(frozen=True)
class Measurement:
    """One fresh (uncached) timing of a configuration at a size.

    ``time`` averages the makespan over the evaluator's ``trials``;
    ``tasks``/``steals`` describe the last trial's schedule (the fields
    the ``candidate`` trace event reports).
    """

    time: float
    tasks: int
    steals: int

    def to_record(self) -> Dict[str, object]:
        """The wire/cache form: the schema one JSONL cache row and one
        pool-worker result share."""
        return {"time": self.time, "tasks": self.tasks, "steals": self.steals}

    @staticmethod
    def from_record(record: object) -> "Measurement":
        """Parse and validate a result record.

        Raises ``ValueError`` on anything malformed — a non-dict, missing
        fields, non-numeric or non-finite values — which is how the
        evaluator detects corrupted worker results and how the cache
        loader rejects damaged rows.
        """
        if not isinstance(record, dict):
            raise ValueError(f"record is {type(record).__name__}, not a dict")
        try:
            time = float(record["time"])
            tasks = int(record["tasks"])
            steals = int(record["steals"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed measurement record: {exc}") from None
        if not math.isfinite(time) or time < 0 or tasks < 0 or steals < 0:
            raise ValueError(f"out-of-range measurement record: {record!r}")
        return Measurement(time=time, tasks=tasks, steals=steals)


def generator_inputs(
    program: CompiledProgram, transform_name: str
) -> InputGenerator:
    """Build an input generator from the transform's ``generator``
    declaration (paper §2): the named transform is run with every size
    variable bound to the training size, and its outputs (in declaration
    order) become the target transform's inputs.  The ``rand()`` builtin
    is reseeded per call so training rounds see varied data
    deterministically."""
    from repro.language.interp import seed_rand

    target = program.transform(transform_name)
    generator_name = target.ir.generator
    if generator_name is None:
        raise ValueError(
            f"transform {transform_name!r} declares no generator"
        )
    generator = program.transform(generator_name)
    if len(generator.ir.outputs) != len(target.ir.inputs):
        raise ValueError(
            f"generator {generator_name!r} produces "
            f"{len(generator.ir.outputs)} outputs but {transform_name!r} "
            f"takes {len(target.ir.inputs)} inputs"
        )

    def make(size: int, rng: random.Random):
        seed_rand(rng.getrandbits(32))
        result = generator.run(
            sizes={var: size for var in generator.ir.size_vars}
        )
        return [result.outputs[m.name].data for m in generator.ir.outputs]

    return make


def random_inputs(
    program: CompiledProgram, transform_name: str
) -> InputGenerator:
    """Uniform random arrays matching the transform's declared inputs,
    every size variable bound to the training size — the input policy
    for transforms that declare no ``generator``."""
    target = program.transform(transform_name)

    def make(size: int, rng: random.Random):
        np_rng = np.random.default_rng(rng.getrandbits(32))
        arrays = []
        env = {var: size for var in target.ir.size_vars}
        for mat in target.ir.inputs:
            shape = tuple(dim.eval_floor(env) for dim in mat.dims)
            arrays.append(np_rng.random(shape))
        return arrays

    return make


@dataclass(eq=False)
class _PendingItem:
    """One unresolved measurement's recovery state during a batch."""

    config: ChoiceConfig
    key: Tuple  # the in-memory identity, ``(config.key(), size)``
    signature: str
    size: int
    attempts: int = 0       # attempts consumed (feeds injector decisions)
    timeouts: int = 0       # deadline misses so far
    strikes: int = 0        # consecutive worker crashes attributed to it
    record: Optional[Dict[str, Any]] = None
    persist: bool = True    # whether the resolution goes to the disk cache

    def resolve(self, record: Dict[str, Any], persist: bool = True) -> None:
        self.record = record
        self.persist = persist


def _attempt(
    evaluator: "Evaluator",
    injector: Optional[FaultInjector],
    config: ChoiceConfig,
    signature: str,
    size: int,
    attempt: int,
    remote: bool,
) -> Dict[str, Any]:
    """One attempt at one measurement, as a record; never raises.

    Errors come back as ``{"error": ...}`` records (``"transient"`` when
    a retry may succeed) for :meth:`Evaluator._classify`.  Crash, hang
    and corrupt-record faults model a process boundary and fire only in
    a pool worker (``remote``); ``attempt`` feeds the injector, so faults
    replay exactly yet do not re-fire on recovery attempts.
    """
    identity = f"{signature}|{size}"
    if injector is not None:
        if remote and injector.fires("worker-crash", identity, attempt):
            os._exit(3)
        if remote and injector.fires("worker-hang", identity, attempt):
            _time.sleep(injector.hang_seconds)
        if injector.fires("transient", identity, attempt):
            return {
                "error": "TransientFault: injected transient failure",
                "transient": True,
            }
    try:
        started = _time.perf_counter()
        record = evaluator.measure(config, size, signature).to_record()
    except TransientFault as exc:
        return {"error": f"TransientFault: {exc}", "transient": True}
    except Exception as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    record["wall_ms"] = (_time.perf_counter() - started) * 1000.0
    if remote and injector is not None and injector.fires(
        "corrupt-record", identity, attempt
    ):
        return {"time": "<corrupt>", "steals": record["steals"]}
    return record


# -- pool worker side ----------------------------------------------------------

_WORKER_EVALUATOR: Optional["Evaluator"] = None
_WORKER_INJECTOR: Optional[FaultInjector] = None


def _init_worker(
    spec: "EvaluatorSpec", injector: Optional[FaultInjector] = None
) -> None:
    global _WORKER_EVALUATOR, _WORKER_INJECTOR
    _WORKER_EVALUATOR = spec.build()
    _WORKER_INJECTOR = injector


def _pool_measure(signature: str, size: int, attempt: int) -> Dict[str, Any]:
    """One pool task: :func:`_attempt` on the worker's own evaluator."""
    return _attempt(
        _WORKER_EVALUATOR, _WORKER_INJECTOR, ChoiceConfig.from_json(signature),
        signature, size, attempt, remote=True,
    )


class Evaluator:
    """Times configurations of one transform on one (simulated) machine.

    ``jobs > 1`` with a ``spec`` measures batches over that many worker
    processes; ``cache`` persists every resolution across runs;
    ``measure_timeout`` (seconds; ``None`` disables) floors the pool's
    adaptive deadline; ``max_retries`` bounds the retries of transient
    failures, corrupt records, crash casualties and deadline misses;
    ``injector`` is a :class:`repro.faults.FaultInjector` (dev/test only).
    """

    def __init__(
        self,
        program: CompiledProgram,
        transform: str,
        input_generator: InputGenerator,
        machine: Machine,
        workers: Optional[int] = None,
        trials: int = 1,
        seed: int = 20090615,  # PLDI'09 started June 15 2009
        sink: Optional["TraceSink"] = None,
        jobs: int = 1,
        cache: Optional["MeasurementCache"] = None,
        spec: Optional["EvaluatorSpec"] = None,
        measure_timeout: Optional[float] = None,
        max_retries: int = 3,
        injector: Optional[FaultInjector] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials!r}")
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers!r}")
        if measure_timeout is not None and measure_timeout <= 0:
            raise ValueError("measure_timeout must be positive (or None)")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.program = program
        self.transform: CompiledTransform = program.transform(transform)
        self.input_generator = input_generator
        self.machine = machine
        self.workers = workers if workers is not None else machine.cores
        self.trials = trials
        self.seed = seed
        #: optional observability sink: every fresh measurement emits a
        #: ``candidate`` record (config, size, fitness) — the candidate
        #: timeline of a tuning run.
        self.sink = sink
        self.jobs = jobs
        self.cache = cache
        self.spec = spec
        self.measure_timeout = measure_timeout
        self.max_retries = max_retries
        self.injector = injector
        self.evaluations = 0
        #: True once the evaluator measures in process for good.
        self.degraded = False
        #: signatures barred from measurement (signature -> reason).
        self.quarantined: Dict[str, str] = {}
        self._times: Dict[Tuple[Tuple, int], float] = {}
        self._failures: Dict[Tuple[Tuple, int], str] = {}
        #: ``(size, trial)`` -> that trial's read-only inputs
        self._inputs: Dict[Tuple[int, int], object] = {}
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_builds = 0
        self._idle_pool_rounds = 0
        self._best_wall: Dict[int, float] = {}
        if cache is not None:
            self._count("tuner.cache.corrupt_lines", cache.corrupt_lines)

    @classmethod
    def from_spec(
        cls, spec: "EvaluatorSpec", sink=None, **kwargs: Any
    ) -> "Evaluator":
        """The parent evaluator of a pool, built from the recipe its
        workers use, so parent and workers measure identically; keyword
        arguments (``jobs``, ``cache``, ...) go to the constructor."""
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
            spec=spec,
            **kwargs,
        )

    def run_once(
        self,
        config: ChoiceConfig,
        size: int,
        trial: int = 0,
        signature: Optional[str] = None,
    ) -> Tuple[RunResult, ScheduleResult]:
        """One full execute + schedule simulation (uncached).

        Both the generated input and the scheduler RNG are seeded from
        the measurement's identity — never from shared evaluator state —
        so the result does not depend on what was measured before it.
        Input data depends only on ``(seed, size, trial)`` so every
        configuration is timed against the same inputs.
        """
        if signature is None:
            signature = config_signature(config)
        result = self.transform.run(self.inputs(size, trial), config)
        scheduler = WorkStealingScheduler(
            self.machine,
            seed=measurement_seed(self.seed, signature, size, trial),
        )
        schedule = scheduler.run(result.graph, workers=self.workers)
        return result, schedule

    def inputs(self, size: int, trial: int) -> object:
        """The training inputs of ``(size, trial)``: generated from an
        RNG seeded by ``(seed, size, trial)`` on first use, then the same
        object on every call, its arrays read-only."""
        inputs = self._inputs.get((size, trial))
        if inputs is None:
            rng = random.Random(self.seed * 1000003 + size * 1009 + trial)
            inputs = self.input_generator(size, rng)
            arrays = inputs.values() if isinstance(inputs, Mapping) else inputs
            for array in arrays:
                if isinstance(array, np.ndarray):
                    array.flags.writeable = False
            self._inputs[size, trial] = inputs
        return inputs

    def measure(
        self, config: ChoiceConfig, size: int, signature: Optional[str] = None
    ) -> Measurement:
        """One fresh averaged-over-trials timing, bypassing the cache.

        The pure objective the loop runs, in process and in pool
        workers alike: a pure function of ``(seed, signature, size,
        trial range)``.
        """
        if signature is None:
            signature = config_signature(config)
        total = 0.0
        schedule: Optional[ScheduleResult] = None
        for trial in range(self.trials):
            _, schedule = self.run_once(config, size, trial, signature)
            total += schedule.makespan
        return Measurement(
            time=total / self.trials,
            tasks=schedule.tasks,
            steals=schedule.steals,
        )

    def time(self, config: ChoiceConfig, size: int) -> float:
        """Simulated parallel time of ``config`` at input ``size``: a
        one-pair :meth:`evaluate_batch` that raises the
        :class:`CandidateFailure` of a nonviable configuration."""
        (outcome,) = self.evaluate_batch([(config, size)])
        if isinstance(outcome, CandidateFailure):
            raise outcome
        return outcome

    def evaluate_batch(
        self, batch: Sequence[Tuple[ChoiceConfig, int]]
    ) -> List[Union[float, CandidateFailure]]:
        """Each ``(config, size)`` pair's time, or the
        :class:`CandidateFailure` that culls it, in batch order.

        Known pairs resolve at once; the misses are measured together
        (see the module docstring) and recorded in batch order, whatever
        the worker count, completion order or faults recovered.  The
        disk cache is flushed afterwards, so a killed run loses at most
        the batch in flight.
        """
        keys: List[Tuple[Tuple, int]] = []
        pending: Dict[Tuple[Tuple, int], _PendingItem] = {}
        hits = 0
        for config, size in batch:
            key = (config.key(), size)
            keys.append(key)
            if key in self._times:
                hits += 1
            elif key in self._failures or key in pending:
                continue
            else:
                signature = config_signature(config)
                if signature in self.quarantined:
                    self._failures[key] = self.quarantined[signature]
                elif not self._consult_disk(key, signature):
                    pending[key] = _PendingItem(config, key, signature, size)
        self._count("tuner.cache_hits", hits)
        if pending:
            started = _time.perf_counter()
            items = list(pending.values())
            self._resolve(items)
            for item in items:
                self._install(item)
            if self.sink is not None:
                self.sink.count("tuner.pool.batches")
                self.sink.count("tuner.cache.misses", len(items))
                self.sink.observe("tuner.pool.batch_size", len(items))
                self.sink.observe(
                    "tuner.pool.batch_latency_ms",
                    (_time.perf_counter() - started) * 1000.0,
                )
            self.flush_cache()
        return [
            self._times[key] if key in self._times
            else CandidateFailure(self._failures[key])
            for key in keys
        ]

    # -- the one resolution loop -------------------------------------------

    def _resolve(self, pending: List[_PendingItem]) -> None:
        """Resolve every pending item to a record — measurement or
        failure — in rounds, each run in process or over the pool."""
        rounds = 0
        while True:
            unresolved = [item for item in pending if item.record is None]
            if not unresolved:
                return
            if rounds:
                self._count("tuner.pool.retries", len(unresolved))
                _time.sleep(RETRY_BACKOFF.delay("resolve", rounds - 1))
            if self.jobs == 1 or self.spec is None or self.degraded:
                outcomes = {
                    item: self._classify(_attempt(
                        self, self.injector, item.config, item.signature,
                        item.size, item.attempts, remote=False,
                    ))
                    for item in unresolved
                }
            else:
                outcomes = self._pool_round(unresolved)
            self._settle_round(unresolved, outcomes)
            rounds += 1

    @staticmethod
    def _classify(record: Any) -> Tuple[str, Dict[str, Any]]:
        """Classify an attempt's record: ``("ok", measurement record)``,
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

    def _pool_round(
        self, items: Sequence[_PendingItem]
    ) -> Dict[_PendingItem, Tuple[str, Any]]:
        """Dispatch one round over the pool and wait for it under the
        round budget.

        Returns item -> ("ok" | "retry", record) | ("crash", message) |
        ("timeout", None).  Items whose submit failed are absent (they
        retry next round).
        """
        futures: Dict[Any, _PendingItem] = {}
        try:
            pool = self._ensure_pool()
            for item in items:
                future = pool.submit(
                    _pool_measure, item.signature, item.size, item.attempts
                )
                futures[future] = item
        except Exception:
            # The pool itself is unusable (failed to spawn, broke on
            # submit); already-submitted futures still resolve below.
            self._kill_pool()
        self._count("tuner.pool.dispatches", len(futures))
        outcomes: Dict[_PendingItem, Tuple[str, Any]] = {}
        if not futures:
            return outcomes
        budget = self._round_budget(list(futures.values()))
        deadline = None if budget is None else Deadline.after(budget)
        remaining = set(futures)
        while remaining:
            timeout = None
            if deadline is not None:
                if deadline.expired():
                    break
                timeout = deadline.remaining_s()
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
        damaged pool, and degrade if the pool keeps failing."""
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
                if item.strikes >= QUARANTINE_AFTER:
                    self.quarantined[item.signature] = (
                        f"quarantined: measurement crashed "
                        f"{QUARANTINE_AFTER} consecutive workers "
                        f"(last: {payload})"
                    )
                    self._count("tuner.pool.quarantines")
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
            if item.record is None and item.signature in self.quarantined:
                item.resolve(
                    {"error": self.quarantined[item.signature]},
                    persist=False,
                )
        if pool_damaged:
            # Hung workers hold pool slots and broken pools reject
            # submits: reclaim by force and rebuild lazily next round.
            self._kill_pool()
        if progressed:
            self._idle_pool_rounds = 0
        elif pool_damaged or not outcomes:
            self._idle_pool_rounds += 1
            if self._idle_pool_rounds >= DEGRADE_AFTER:
                self.degraded = True
                self._kill_pool()
                self._count("tuner.degraded_serial")

    def _install(self, item: _PendingItem) -> None:
        """Record one resolved item in batch order: a time counts as an
        evaluation and emits ``candidate``; either kind goes to the disk
        cache unless it is a session-local verdict."""
        key = item.key
        record = item.record
        if "error" in record:
            self._failures[key] = record["error"]
        else:
            self._times[key] = record["time"]
            self.evaluations += 1
            if self.sink is not None:
                self.sink.count("tuner.evaluations")
                self.sink.emit(
                    "candidate",
                    size=item.size,
                    time=record["time"],
                    tasks=record["tasks"],
                    steals=record["steals"],
                    config=item.signature,
                )
        if item.persist and self.cache is not None:
            self.cache.store(self._cache_key(item.signature, item.size), record)

    def _consult_disk(self, key: Tuple[Tuple, int], signature: str) -> bool:
        """Pull the resolution of ``key`` (whose configuration has JSON
        ``signature``) from the persistent cache if present."""
        if self.cache is None:
            return False
        record = self.cache.lookup(self._cache_key(signature, key[1]))
        if record is None:
            return False
        if "error" in record:
            self._failures[key] = record["error"]
        else:
            self._times[key] = record["time"]
        self._count("tuner.cache.disk_hits")
        return True

    def _cache_key(self, signature: str, size: int) -> Tuple[Any, ...]:
        return (
            self.machine.name, self.workers, self.trials, self.seed,
            signature, size,
        )

    def _count(self, name: str, delta: int = 1) -> None:
        if self.sink is not None and delta:
            self.sink.count(name, delta)

    def _deadline_for(self, size: int) -> float:
        """Adaptive per-measurement deadline: a multiple of the best
        wall-clock measurement observed at this size, floored at the
        configured ``measure_timeout``."""
        best = self._best_wall.get(size)
        if best is None:
            return self.measure_timeout
        return max(self.measure_timeout, DEADLINE_FACTOR * best)

    def _round_budget(self, items: Sequence[_PendingItem]) -> Optional[float]:
        """Wall-clock budget for one dispatch round: the worst per-item
        deadline times the number of worker waves, plus slack."""
        if self.measure_timeout is None:
            return None
        per_item = max(self._deadline_for(item.size) for item in items)
        waves = math.ceil(len(items) / self.jobs)
        return per_item * waves + 0.25 * per_item + 0.05

    def _note_wall(self, size: int, wall_ms: Optional[float]) -> None:
        if wall_ms is None or wall_ms <= 0:
            return
        seconds = wall_ms / 1000.0
        best = self._best_wall.get(size)
        if best is None or seconds < best:
            self._best_wall[size] = seconds

    # -- lifecycle -----------------------------------------------------------

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

    def __enter__(self) -> "Evaluator":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
