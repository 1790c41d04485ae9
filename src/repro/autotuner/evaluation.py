"""The autotuner's objective function.

``Evaluator.time(config, size)`` executes the target transform on a
generated input of the requested size, records the task graph, and
simulates it on the target machine with the work-stealing scheduler.
Autotuning is therefore performed "on the target system" exactly as in
the paper — here the target system is a simulated architecture profile,
which keeps the objective deterministic and lets the benchmark suite
retune for Mobile/Xeon/Niagara without the hardware.

Measurements are cached by (configuration signature, size) and averaged
over ``trials`` generated inputs.  Each individual measurement is a pure
function of ``(seed, configuration signature, size, trial)``: both the
input data and the scheduler's victim-selection RNG are derived from
that tuple alone, never from evaluator state, so measurements are
order-independent — evaluating candidates interleaved, repeated,
reordered, or fanned out across worker processes (see
:mod:`repro.autotuner.parallel`) yields identical values.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.compiler.codegen import CompiledProgram, CompiledTransform, RunResult
from repro.compiler.config import ChoiceConfig
from repro.runtime.machine import Machine
from repro.runtime.scheduler import ScheduleResult, WorkStealingScheduler

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.observe.trace import TraceSink

#: Builds inputs for one training size: (size, rng) -> inputs for run().
InputGenerator = Callable[[int, random.Random], object]


def config_signature(config: ChoiceConfig) -> str:
    """A canonical string identifying a configuration's behaviour."""
    return config.to_json()


def measurement_seed(seed: int, signature: str, size: int, trial: int) -> int:
    """The scheduler seed for one measurement.

    A stable hash of ``(seed, signature, size, trial)`` — deliberately
    *not* Python's salted ``hash()`` — so every measurement draws its
    scheduler RNG from its identity alone.  This is what makes
    measurements order-independent and safe to fan out across processes.
    """
    digest = hashlib.blake2b(
        f"{seed}|{size}|{trial}|{signature}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


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
        fault-tolerant evaluator detects corrupted worker results and
        how the cache loader rejects damaged rows.
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


class Evaluator:
    """Times configurations of one transform on one (simulated) machine."""

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
    ) -> None:
        self.program = program
        self.transform: CompiledTransform = program.transform(transform)
        self.input_generator = input_generator
        self.machine = machine
        self.workers = workers if workers is not None else machine.cores
        self.trials = trials
        self.seed = seed
        self._cache: Dict[Tuple[str, int], float] = {}
        self.evaluations = 0
        #: optional observability sink: every fresh measurement emits a
        #: ``candidate`` record (config, size, fitness) — the candidate
        #: timeline of a tuning run.
        self.sink = sink

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
        rng = random.Random(self.seed * 1000003 + size * 1009 + trial)
        inputs = self.input_generator(size, rng)
        result = self.transform.run(inputs, config)
        scheduler = WorkStealingScheduler(
            self.machine,
            seed=measurement_seed(self.seed, signature, size, trial),
        )
        schedule = scheduler.run(result.graph, workers=self.workers)
        return result, schedule

    def measure(
        self, config: ChoiceConfig, size: int, signature: Optional[str] = None
    ) -> Measurement:
        """One fresh averaged-over-trials timing, bypassing the cache.

        This is the pure objective shared by :meth:`time` and the
        process-pool workers of :mod:`repro.autotuner.parallel`: a pure
        function of ``(seed, signature, size, trial range)``.
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

    def _record_fresh(
        self, signature: str, size: int, measurement: Measurement
    ) -> None:
        """Install a fresh measurement: cache, count, emit ``candidate``."""
        self._cache[(signature, size)] = measurement.time
        self.evaluations += 1
        if self.sink is not None:
            self.sink.count("tuner.evaluations")
            self.sink.emit(
                "candidate",
                size=size,
                time=measurement.time,
                tasks=measurement.tasks,
                steals=measurement.steals,
                config=signature,
            )

    def time(self, config: ChoiceConfig, size: int) -> float:
        """Simulated parallel time of ``config`` at input ``size`` (cached
        by ``(configuration signature, size)``, averaged over ``trials``
        generated inputs)."""
        signature = config_signature(config)
        key = (signature, size)
        if key not in self._cache:
            self._record_fresh(signature, size, self.measure(config, size, signature))
        elif self.sink is not None:
            self.sink.count("tuner.cache_hits")
        return self._cache[key]

    def sequential_time(self, config: ChoiceConfig, size: int) -> float:
        """Simulated single-core time (no scheduling overhead) of trial 0
        only — sequential work is trial-invariant up to input data, and
        one generated input suffices for the cutoff analyses that use
        this."""
        _, schedule = self.run_once(config, size)
        return schedule.sequential_time
