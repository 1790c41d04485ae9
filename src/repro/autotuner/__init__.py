"""The PetaBricks autotuner (paper §3.3).

The tuner searches the flat configuration space the compiler exports:
one multi-level algorithm selector per choice site plus integer tunables
(sequential cutoff, block size, user ``tunable`` declarations).

Components:

* :mod:`repro.autotuner.evaluation` — the objective: run a configuration
  on generated inputs, simulate the recorded task graph on the target
  :class:`~repro.runtime.machine.Machine`, return the makespan; and the
  one evaluator, whose single measurement loop batches misses in process
  or over a process pool and survives worker crashes and hangs.
* :mod:`repro.autotuner.candidates` — candidate algorithms (configs) and
  the level-adding mutation that grows multi-level compositions.
* :mod:`repro.autotuner.nary` — n-ary search for scalar parameters, one
  batch of probes per round.
* :mod:`repro.autotuner.parallel` — what crosses process and run
  boundaries: the picklable evaluator recipe, the persistent (JSONL)
  measurement cache shared across tuning runs, and the one tune wiring.
* :mod:`repro.autotuner.tuner` — the bottom-up genetic tuner: seeded with
  every single-algorithm implementation, doubling the training input each
  generation, extending the fastest candidates with new levels.
* :mod:`repro.autotuner.consistency` — the one observer of a run and the
  consistency check built on it (paper §3.5); no tuner code calls it.
* :mod:`repro.autotuner.accuracy` — variable-accuracy support: Pareto
  fronts over (time, accuracy) and fastest-per-accuracy-bin selection
  (paper §4.1.3-4.1.4).
"""

from repro.autotuner.accuracy import fastest_per_bin, pareto_front
from repro.autotuner.candidates import Candidate, add_level, seed_population
from repro.autotuner.consistency import ConsistencyError, check_consistency
from repro.autotuner.evaluation import (
    CandidateFailure,
    Evaluator,
    measurement_seed,
)
from repro.autotuner.nary import nary_search
from repro.autotuner.parallel import EvaluatorSpec, MeasurementCache
from repro.autotuner.tuner import GeneticTuner, TuneResult

__all__ = [
    "Candidate",
    "CandidateFailure",
    "ConsistencyError",
    "Evaluator",
    "EvaluatorSpec",
    "GeneticTuner",
    "MeasurementCache",
    "TuneResult",
    "measurement_seed",
    "add_level",
    "check_consistency",
    "fastest_per_bin",
    "nary_search",
    "pareto_front",
    "seed_population",
]
