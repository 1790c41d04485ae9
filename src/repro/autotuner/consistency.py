"""Automated consistency checking (paper §3.5): the one observer of a run.

On a fixed input every configuration of a transform must produce the same
output (within a threshold, for iterative/approximate methods).  Two runs
agree when their :class:`Observation` fields are equal: the test suite and
:func:`check_consistency` compare nothing else.  No tuner code calls this.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.compiler.codegen import CompiledProgram, CompiledTransform
from repro.compiler.config import ChoiceConfig
from repro.language.errors import PetaBricksError
from repro.language.interp import seed_rand
from repro.observe import TraceSink
from repro.runtime.matrix import Matrix

from repro.autotuner.candidates import seed_population
from repro.autotuner.evaluation import InputGenerator

#: A value no program produces from bounded inputs: a cell that still
#: holds it after a run was never written.
SENTINEL = -987654321.25

#: every observed run draws the ``rand()`` stream this seeds
RAND_SEED = 0x5EED


class ConsistencyError(AssertionError):
    """Two candidate algorithms disagree beyond the threshold."""


@dataclass(frozen=True)
class Observation:
    """``graph`` holds ``(label, deps, parent, spawns, work)`` per task.
    A run that raised reports the matrices allocated by the abort; a
    batch lane has no graph and one counter, ``batch.stacked``."""

    outputs: Dict[str, bytes]
    writes: Dict[str, bytes]
    rule_applications: Optional[int] = None
    graph: Optional[Tuple[tuple, ...]] = None
    error: Optional[str] = None
    counters: Dict[str, int] = field(default_factory=dict)


@contextmanager
def sentinel_alloc():
    """Fill every matrix ``Matrix.zeros`` allocates — outputs, ``through``
    matrices, stacked batches — with :data:`SENTINEL`; yields them."""
    allocated = []

    def filled(shape, name="", dtype=np.float64):
        allocated.append(Matrix(np.full(tuple(shape), SENTINEL, dtype), name))
        return allocated[-1]

    original = Matrix.zeros
    Matrix.zeros = staticmethod(filled)
    try:
        yield allocated
    finally:
        Matrix.zeros = original


def _copy(inputs):
    if isinstance(inputs, dict):
        return {name: np.array(value) for name, value in inputs.items()}
    return [np.array(value) for value in inputs]


def _observation(matrices, error=None, **fields) -> Observation:
    return Observation(
        {name: m.data.tobytes() for name, m in matrices.items()},
        {name: (m.data != SENTINEL).tobytes() for name, m in matrices.items()},
        error=None if error is None else f"{type(error).__name__}: {error}",
        **fields,
    )


def observe(transform: CompiledTransform, inputs, config, sizes=None) -> Observation:
    """Run ``transform`` on a copy of ``inputs``, ``rand()`` reseeded.
    Only what a program raises is caught: ``PetaBricksError``,
    ``IndexError``."""
    sink = TraceSink(capture_events=False)
    seed_rand(RAND_SEED)
    with sentinel_alloc() as allocated:
        try:
            result = transform.run(_copy(inputs), config, sizes=sizes, sink=sink)
        except (PetaBricksError, IndexError) as error:
            matrices, found = {m.name: m for m in allocated}, dict(error=error)
        else:
            matrices, found = result.outputs, dict(
                rule_applications=result.rule_applications,
                graph=tuple((t.label, t.deps, t.parent, t.spawns, t.work)
                            for t in result.graph.tasks),
            )
    counters = {
        name: value for name, value in sink.counters.items()
        if name.startswith("exec.")
        and not name.startswith(("exec.plan_", "exec.geom_cache_"))
    }
    return _observation(matrices, counters=counters, **found)


def observe_batch(transform: CompiledTransform, requests) -> List[Observation]:
    """One ``BatchEngine.gather`` over ``(inputs, config[, sizes])``
    requests: one :class:`Observation` per lane, in order."""
    from repro.batch import BatchEngine

    engine = BatchEngine()
    for inputs, config, *sizes in requests:
        engine.submit(transform, _copy(inputs), config, *sizes)
    seed_rand(RAND_SEED)
    with sentinel_alloc():
        results = engine.gather()
    return [
        _observation(r.outputs or {}, r.error, counters={"batch.stacked": int(r.stacked)})
        for r in results
    ]


def _max_error(expected: bytes, got: bytes) -> float:
    """NaN positions must match; equal cells (infinities too) differ by 0."""
    a, b = np.frombuffer(expected), np.frombuffer(got)
    if a.shape != b.shape or not np.array_equal(np.isnan(a), np.isnan(b)):
        return float("inf")
    differ = ~np.isnan(a) & (a != b)
    return float(np.max(np.abs(a[differ] - b[differ]), initial=0.0))


def check_consistency(
    program: CompiledProgram,
    transform: str,
    input_generator: InputGenerator,
    sizes: Sequence[int],
    threshold: float = 0.0,
    extra_configs: Sequence[ChoiceConfig] = (),
    seed: int = 0xC0DE,
) -> Dict[int, int]:
    """Check all single-algorithm configs (plus ``extra_configs``) agree:
    bit for bit at ``threshold`` 0, else within it at every cell.

    Returns {size: number of configurations compared}.  Raises
    :class:`ConsistencyError` with the offending pair on disagreement.
    Configurations whose run raises a program error are skipped
    (nonviable, not inconsistent).
    """
    target = program.transform(transform)
    configs = [c.config for c in seed_population(target)] + list(extra_configs)
    compared: Dict[int, int] = {}
    for size in sizes:
        inputs = input_generator(size, random.Random(seed * 1000003 + size))
        viable = []
        for index, config in enumerate(configs):
            seen = observe(target, inputs, config)
            if seen.error is None:  # else nonviable, e.g. runaway recursion
                viable.append((index, seen.outputs))
        for index, outputs in viable[1:]:
            for name, expected in viable[0][1].items():
                error = _max_error(expected, outputs[name])
                if outputs[name] != expected and (threshold == 0 or error > threshold):
                    raise ConsistencyError(
                        f"{transform}@{size}: output {name!r} differs (max error "
                        f"{error:g}, threshold {threshold:g}) between "
                        f"config{viable[0][0]} and config{index}"
                    )
        compared[size] = len(viable)
    return compared
